"""Joint tables, tensor products, marginals, and the product/entangled decision."""

import functools
import itertools
import math
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import contextrep.joint
import contextrep.probability
from contextrep import (
    BlockSpectralFamily,
    ContextId,
    CountTable,
    InvalidCounts,
    InvalidJointTable,
    JointComplexVector,
    JointTable,
    OutcomeSet,
    ParseError,
    PhaseAssignment,
    ProbabilityVector,
    UnsupportedFamily,
    build_complex_context,
    build_joint_vectors,
    build_real_context,
    factorization_certificate,
    is_product,
    marginals,
    parse_joint_csv,
    parse_joint_json,
    probabilities_from_counts,
    tensor_product_complex,
    tensor_product_real,
)
from contextrep.cli import _joint_sections
from contextrep.joint import _max_minor
from contextrep.probability import is_exact_value
from oracles import (
    exact_factorization_search,
    joint_vectors_oracle,
    marginals_oracle,
    max_minor_oracle,
    residual_oracle,
)

CTX = ContextId("test", "state", "measurement")

ROWS = OutcomeSet(("r0", "r1"))
COLS = OutcomeSet(("c0", "c1"))


def animal_acts_joint():
    return JointTable.from_counts(
        OutcomeSet(("Horse", "Bear")),
        OutcomeSet(("Growls", "Whinnies")),
        ((4, 51), (21, 5)),
    )


def vessels_ideal():
    return JointTable(ROWS, COLS, ((0.0, 0.5), (0.5, 0.0)))


def count_tables():
    """Count tables up to 5x5, about half outer products; zero rows and columns occur."""

    def cells(n, m):
        row = st.lists(st.integers(0, 9), min_size=m, max_size=m)
        return st.lists(row, min_size=n, max_size=n)

    def outer(n, m):
        vectors = st.tuples(
            st.lists(st.integers(0, 6), min_size=n, max_size=n),
            st.lists(st.integers(0, 6), min_size=m, max_size=m),
        )
        return vectors.map(lambda uv: [[a * b for b in uv[1]] for a in uv[0]])

    shapes = st.tuples(st.integers(1, 5), st.integers(1, 5))
    tables = shapes.flatmap(lambda s: st.one_of(cells(*s), outer(*s)))
    return tables.filter(lambda c: sum(map(sum, c)) > 0)


def distributions(n):
    return (
        st.lists(st.integers(1, 50), min_size=n, max_size=n)
        .map(lambda cs: tuple(Fraction(c, sum(cs)) for c in cs))
    )


class TestJointTable:
    def test_from_counts_is_exact(self):
        t = animal_acts_joint()
        assert t.probs[0] == (Fraction(4, 81), Fraction(51, 81))
        assert t.is_exact
        assert t.counts == ((4, 51), (21, 5))

    def test_count_table_is_exact_without_a_scan(self, monkeypatch):
        """A table built from counts alone knows it is exact; counts with floats are scanned."""
        scanned = []
        monkeypatch.setattr(contextrep.joint, "is_exact_value",
                            lambda p: scanned.append(p) or is_exact_value(p))
        assert animal_acts_joint().is_exact
        assert scanned == []
        quarters = ((0.25, 0.25), (0.25, 0.25))
        t = JointTable(ROWS, COLS, quarters, counts=((1, 1), (1, 1)))
        assert not t.is_exact
        assert scanned[0] == 0.25
        report = is_product(t)
        assert (report.arithmetic, report.tolerance, report.residual) == ("float", 1e-9, 0.0)
        assert [type(p) for p in report.marginals.row.probs] == [float, float]

    def test_rejects_bad_shape(self):
        with pytest.raises(InvalidJointTable):
            JointTable(ROWS, COLS, ((0.5, 0.5),))
        half = ((Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1, 2)))
        for counts in ((), ((1, 0),), ((1, 0), (0,))):
            with pytest.raises(InvalidJointTable, match="shape"):
                JointTable(ROWS, COLS, half, counts=counts)

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidJointTable):
            JointTable(ROWS, COLS, ((0.5, 0.5), (0.5, 0.5)))

    def test_rejects_missing_probs_and_counts(self):
        with pytest.raises(InvalidJointTable, match="probabilities or counts are required"):
            JointTable(ROWS, COLS, None)

    def test_rejects_counts_probs_mismatch(self):
        with pytest.raises(InvalidJointTable):
            JointTable(
                ROWS,
                COLS,
                ((Fraction(1, 2), Fraction(1, 2)), (Fraction(0), Fraction(0))),
                counts=((1, 1), (1, 1)),
            )
        with pytest.raises(InvalidJointTable, match="at least 1"):
            JointTable(ROWS, COLS, ((0.25, 0.25), (0.25, 0.25)), counts=((0, 0), (0, 0)))
        with pytest.raises(InvalidJointTable, match="invalid"):
            JointTable(ROWS, COLS, ((0.25, 0.25), (0.25, 0.25)), counts=(("1", 1), (1, 1)))

    @pytest.mark.parametrize(
        "counts, message",
        [
            ((("1", 1), (1, 1)), r"cell \(0, 0\): '1'"),
            (((1.5, 1), (1, 1)), r"cell \(0, 0\): 1.5"),
            (((1, 1), (True, 1)), r"cell \(1, 0\): True"),
            (((-1, 2), (1, 1)), r"cell \(0, 0\): -1"),
            (((1, 1), (1,)), "shape"),
            (((0, 0), (0, 0)), "at least 1"),
        ],
    )
    def test_from_counts_refuses_bad_counts_before_summing(self, counts, message):
        with pytest.raises(InvalidCounts, match=message):
            JointTable.from_counts(ROWS, COLS, counts)

    def test_combined_labels_concatenate(self):
        t = animal_acts_joint()
        assert t.combined_labels() == (
            "HorseGrowls",
            "HorseWhinnies",
            "BearGrowls",
            "BearWhinnies",
        )

    def test_combined_labels_disambiguate(self):
        t = JointTable(
            OutcomeSet(("a", "ab")), OutcomeSet(("bc", "c")), ((0.25, 0.25), (0.25, 0.25))
        )
        # "a"+"bc" and "ab"+"c" both concatenate to "abc"
        assert t.combined_labels() == ("a|bc", "a|c", "ab|bc", "ab|c")


class TestMarginals:
    def test_animal_acts_marginals(self):
        m = marginals(animal_acts_joint())
        assert m.row.probs == (Fraction(55, 81), Fraction(26, 81))
        assert m.col.probs == (Fraction(25, 81), Fraction(56, 81))
        assert m.row.displayed() == ("0.68", "0.32")
        assert m.col.displayed() == ("0.31", "0.69")

    def test_vessels_marginals_are_even(self):
        m = marginals(vessels_ideal())
        assert m.row.as_floats() == (0.5, 0.5)
        assert m.col.as_floats() == (0.5, 0.5)


class TestTensorProduct:
    def test_real_outer_product_exact(self):
        a = build_real_context(
            ProbabilityVector(ROWS, (Fraction(1, 3), Fraction(2, 3))), CTX
        )
        b = build_real_context(
            ProbabilityVector(COLS, (Fraction(1, 4), Fraction(3, 4))), CTX
        )
        t = tensor_product_real(a, b)
        assert t.probs == (
            (Fraction(1, 12), Fraction(3, 12)),
            (Fraction(2, 12), Fraction(6, 12)),
        )
        assert t.is_exact

    def test_complex_moduli_multiply_and_phases_add(self):
        p1 = ProbabilityVector(ROWS, (Fraction(1, 2), Fraction(1, 2)))
        p2 = ProbabilityVector(COLS, (Fraction(1, 2), Fraction(1, 2)))
        w1 = build_complex_context(p1, CTX, phases=PhaseAssignment((0.3, 0.0)))
        w2 = build_complex_context(p2, CTX, phases=PhaseAssignment((0.4, 0.0)))
        joint = tensor_product_complex(w1, w2)
        assert abs(joint.amplitudes[0]) == pytest.approx(0.5)
        assert joint.phases[0] == pytest.approx(0.7)

    def test_complex_phases_summing_to_two_pi_are_zero(self):
        """pi + pi gives the product a phase of -2.4e-16, stored as 0, not 2pi."""
        p = ProbabilityVector(ROWS, (Fraction(1, 2), Fraction(1, 2)))
        w = build_complex_context(p, CTX, phases=PhaseAssignment((math.pi, 0.0)))
        assert tensor_product_complex(w, w).phases == (0.0, math.pi, math.pi, 0.0)

    @settings(max_examples=200)
    @given(st.integers(1, 4).flatmap(distributions), st.integers(1, 4).flatmap(distributions),
           st.data())
    def test_complex_moduli_are_products_and_phases_are_sums(self, a, b, data):
        """Each cell's modulus is m1 * m2 and its phase (a1 + a2) mod 2pi, to the bit."""
        angle = st.floats(allow_nan=False, allow_infinity=False)
        phases = [PhaseAssignment(data.draw(st.lists(angle, min_size=len(p), max_size=len(p))))
                  for p in (a, b)]
        w1, w2 = (build_complex_context(ProbabilityVector(labelled([p])[1], p), CTX, phases=pa)
                  for p, pa in zip((a, b), phases))
        joint = tensor_product_complex(w1, w2)
        assert joint.moduli() == tuple(m1 * m2 for m1 in w1.moduli() for m2 in w2.moduli())
        sums = [(a1 + a2) % (2 * math.pi) for a1 in phases[0].angles for a2 in phases[1].angles]
        assert joint.phases == tuple(0.0 if x == 2 * math.pi else x for x in sums)

    def test_complex_requires_rank_one(self):
        p = ProbabilityVector(ROWS, (Fraction(1, 2), Fraction(1, 2)))
        fam = BlockSpectralFamily(3, ((0, 1), (2,)))
        w_block = build_complex_context(p, CTX, family=fam)
        w_plain = build_complex_context(p, CTX)
        with pytest.raises(UnsupportedFamily):
            tensor_product_complex(w_block, w_plain)

    def test_product_table_verdict(self):
        a = build_real_context(ProbabilityVector(ROWS, (0.3, 0.7)), CTX)
        b = build_real_context(ProbabilityVector(COLS, (0.6, 0.4)), CTX)
        report = is_product(tensor_product_real(a, b))
        assert report.verdict == "product"
        assert report.witness is None


class TestBuildJointVectors:
    def test_row_major_order_and_norm(self):
        t = animal_acts_joint()
        real, w = build_joint_vectors(t)
        assert real == (
            Fraction(4, 81),
            Fraction(51, 81),
            Fraction(21, 81),
            Fraction(5, 81),
        )
        assert sum(m * m for m in w.moduli()) == pytest.approx(1.0)
        assert [f"{m:.2f}" for m in w.moduli()] == ["0.22", "0.79", "0.51", "0.25"]

    def test_phases_by_basis_label(self):
        t = vessels_ideal()
        phases = PhaseAssignment.from_mapping(
            {"r0c1": math.pi}, labels=t.combined_labels()
        )
        _, w = build_joint_vectors(t, phases)
        assert w.amplitudes[1].real == pytest.approx(-math.sqrt(0.5))

    def test_json_shape(self):
        _, w = build_joint_vectors(vessels_ideal())
        d = w.to_json_dict()
        assert d["basis_labels"] == ["r0c0", "r0c1", "r1c0", "r1c1"]
        assert len(d["amplitudes"]) == 4

    def test_default_phases_are_normalized_once(self, monkeypatch):
        """Zero phases pass through PhaseAssignment once; a given assignment not again."""
        normalized = []
        post_init = PhaseAssignment.__post_init__

        def counting(self):
            normalized.extend(self.angles)
            post_init(self)

        monkeypatch.setattr(PhaseAssignment, "__post_init__", counting)
        build_joint_vectors(animal_acts_joint())
        assert normalized == [0.0] * 4
        phases = PhaseAssignment((1.0, 2.0, 3.0, 4.0))
        normalized.clear()
        assert build_joint_vectors(animal_acts_joint(), phases)[1].phases == phases.angles
        assert normalized == []


class TestJointComplexVector:
    def test_nan_negative_or_infinite_modulus_refused(self):
        """A NaN norm once passed the unit-norm rule; a negative modulus squares to 1."""
        for modulus in (math.nan, -0.6, math.inf):
            with pytest.raises(InvalidJointTable):
                JointComplexVector(ROWS, COLS, (modulus, 0.8, 0.0, 0.0), (0.0,) * 4)


class TestIsProduct:
    def test_animal_acts_entangled_exactly(self):
        report = is_product(animal_acts_joint())
        assert report.verdict == "entangled"
        assert report.arithmetic == "exact"
        assert report.tolerance == 0
        assert report.witness is not None
        assert report.witness.value == Fraction(4 * 5 - 51 * 21, 81 * 81)

    def test_vessels_ideal_minor(self):
        report = is_product(vessels_ideal())
        assert report.verdict == "entangled"
        assert report.witness.value == -0.25

    def test_uniform_table_is_product(self):
        t = JointTable(ROWS, COLS, ((0.25, 0.25), (0.25, 0.25)))
        report = is_product(t)
        assert report.verdict == "product"
        assert report.residual == 0.0

    def test_tolerance_can_mask_weak_entanglement(self):
        t = JointTable(ROWS, COLS, ((0.2501, 0.2499), (0.2499, 0.2501)))
        assert is_product(t).verdict == "entangled"
        assert is_product(t, tol=0.01).verdict == "product"

    def test_rejects_negative_tolerance(self):
        with pytest.raises(ValueError):
            is_product(vessels_ideal(), tol=-1)

    def test_float_rank_one_table_is_product_despite_rounding(self):
        """Every minor of a float outer product can vanish while the residual rounds above 0."""
        t = JointTable.from_counts(ROWS, COLS, ((1, 5), (2, 10)))
        report = is_product(JointTable(ROWS, COLS, t.as_floats()), tol=0)
        assert report.verdict == "product"
        assert report.witness is None
        assert report.residual > 0
        rounded = 0
        for u0, u1, v0, v1 in itertools.product(range(1, 8), repeat=4):
            counts = ((u0 * v0, u0 * v1), (u1 * v0, u1 * v1))
            p = JointTable.from_counts(ROWS, COLS, counts).as_floats()
            report = is_product(JointTable(ROWS, COLS, p), tol=0)
            rank_one = p[0][0] * p[1][1] - p[0][1] * p[1][0] == 0
            assert (report.verdict == "product") == (rank_one or report.residual == 0), counts
            rounded += rank_one and report.residual > 0
        assert rounded > 0

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_rejects_non_finite_tolerance(self, tol):
        product = JointTable.from_counts(ROWS, COLS, ((12, 4), (6, 2)))
        for t in (product, animal_acts_joint()):
            with pytest.raises(ValueError, match="finite"):
                is_product(t, tol=tol)

    @pytest.mark.parametrize("tol", [10**400, -(10**5000), Fraction(10**400, 3)],
                             ids=["int", "int-beyond-the-str-limit", "fraction"])
    def test_rejects_a_tolerance_too_large_for_a_float(self, tol):
        """Refused as inf is, not left to math.isfinite's OverflowError."""
        with pytest.raises(ValueError, match="tolerance is too large for a float"):
            is_product(vessels_ideal(), tol=tol)

    def test_a_negative_tolerance_too_long_for_str_is_named_by_length(self):
        with pytest.raises(ValueError, match=r"tolerance must be nonnegative, got "
                                             r"Fraction\(-1, an integer of 5001 digits\)"):
            is_product(vessels_ideal(), tol=Fraction(-1, 10**5000))

    def test_report_json_shape(self):
        d = is_product(animal_acts_joint()).to_json_dict()
        assert d["verdict"] == "entangled"
        assert d["residual_exact"] == "1051/6561"
        assert d["witness"]["value_exact"] == "-1051/6561"
        assert set(d["marginals"]) == {"row", "col"}

    @settings(max_examples=100)
    @given(distributions(2), distributions(2))
    def test_every_outer_product_is_product(self, a, b):
        """Soundness: true products always pass with zero exact residual."""
        t = tensor_product_real(
            build_real_context(ProbabilityVector(ROWS, a), CTX),
            build_real_context(ProbabilityVector(COLS, b), CTX),
        )
        report = is_product(t)
        assert report.verdict == "product"
        assert report.residual == 0

    @settings(max_examples=100)
    @given(
        st.tuples(
            st.integers(0, 30), st.integers(0, 30), st.integers(0, 30), st.integers(0, 30)
        ).filter(lambda c: sum(c) > 0)
    )
    def test_verdict_matches_exhaustive_search(self, cells):
        """Completeness both ways against brute-force rational factorization."""
        counts = ((cells[0], cells[1]), (cells[2], cells[3]))
        t = JointTable.from_counts(ROWS, COLS, counts)
        verdict = is_product(t).verdict
        found = exact_factorization_search(counts)
        assert (verdict == "product") == (found is not None)


@st.composite
def minor_counts(draw):
    """Count tables up to 7x7, some outer products, with zero rows and columns.

    Cells up to 2^40 put max(C)^2 past int64, so the kernel takes Python ints.
    """
    n, m = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    cell = st.integers(0, draw(st.sampled_from((9, 2**40))))
    if draw(st.booleans()):
        counts = [draw(st.lists(cell, min_size=m, max_size=m)) for _ in range(n)]
    else:
        u = draw(st.lists(cell, min_size=n, max_size=n))
        v = draw(st.lists(cell, min_size=m, max_size=m))
        counts = [[a * b for b in v] for a in u]
    for j in draw(st.sets(st.integers(0, n - 1), max_size=2)):
        counts[j] = [0] * m
    for k in draw(st.sets(st.integers(0, m - 1), max_size=2)):
        for row in counts:
            row[k] = 0
    assume(sum(map(sum, counts)) > 0)
    return counts


def labelled(counts):
    n, m = len(counts), len(counts[0])
    return (OutcomeSet(tuple(f"r{j}" for j in range(n))),
            OutcomeSet(tuple(f"c{k}" for k in range(m))))


def assert_kernel_matches_oracle(t):
    witness, expected = _max_minor(t), max_minor_oracle(t.probs)
    if expected is None:
        assert witness is None
        return
    rows, cols, value = expected
    assert (witness.rows, witness.cols) == (rows, cols)
    assert witness.row_labels == tuple(t.row_outcomes.labels[j] for j in rows)
    assert witness.col_labels == tuple(t.col_outcomes.labels[k] for k in cols)
    if t.is_exact:
        assert isinstance(witness.value, Fraction) and witness.value == value
    else:
        assert isinstance(witness.value, float) and witness.value.hex() == value.hex()


class TestMaxMinor:
    """The vectorized kernel against the quartic scalar loop it replaced."""

    @settings(max_examples=300)
    @given(minor_counts(), st.sampled_from(("counts", "fractions", "floats")))
    def test_kernel_matches_scalar_loop(self, counts, kind):
        t = JointTable.from_counts(*labelled(counts), counts)
        if kind == "fractions":  # exact, without counts: scaled by the lcm of denominators
            t = JointTable(t.row_outcomes, t.col_outcomes, t.probs)
        elif kind == "floats":
            t = JointTable(t.row_outcomes, t.col_outcomes, t.as_floats())
        assert_kernel_matches_oracle(t)

    @pytest.mark.parametrize("big", [2**31 - 1, 2**31, 3037000499, 3037000500, 2**62])
    def test_both_sides_of_the_int64_bound(self, big):
        """2*max(C)^2 < 2^63 runs in int64, anything larger in Python ints."""
        for counts in (((big, big - 1), (1, big)), ((0, big), (big, big)),
                       ((big, 1, 0), (big - 1, big, 2), (0, 3, big))):
            assert_kernel_matches_oracle(JointTable.from_counts(*labelled(counts), counts))

    def test_first_of_equal_minors_wins(self):
        # Columns (0, 1) and (1, 2) give minors +1 and -1: the first in loop order wins.
        t = JointTable.from_counts(*labelled([[1, 0, 1], [0, 1, 0]]), [[1, 0, 1], [0, 1, 0]])
        w = _max_minor(t)
        assert (w.rows, w.cols, w.value) == ((0, 1), (0, 1), Fraction(1, 9))
        # Rows (0, 1) and (1, 2) tie the same way.
        t = JointTable.from_counts(*labelled([[1, 0], [0, 1], [1, 0]]), [[1, 0], [0, 1], [1, 0]])
        w = _max_minor(t)
        assert (w.rows, w.cols, w.value) == ((0, 1), (0, 1), Fraction(1, 9))
        # A later, larger minor still replaces an earlier smaller one.
        t = JointTable.from_counts(*labelled([[1, 0], [0, 1], [3, 0]]), [[1, 0], [0, 1], [3, 0]])
        w = _max_minor(t)
        assert (w.rows, w.cols, w.value) == ((1, 2), (0, 1), Fraction(-3, 25))

    def test_single_row_or_column_has_no_minor(self):
        for probs in (((0.25, 0.75),), ((0.25,), (0.75,))):
            t = JointTable(*labelled(probs), probs)
            assert _max_minor(t) is None


def table(counts):
    return JointTable.from_counts(*labelled(counts), counts)


def minor(c, j, j2, k, k2):
    return c[j][k] * c[j2][k2] - c[j][k2] * c[j2][k]


def assert_kernel_matches_count_oracle(t):
    """The kernel against the scalar loop over the counts: the same minor, over T^2."""
    witness, expected = _max_minor(t), max_minor_oracle(t.counts)
    if expected is None:
        assert witness is None
        return
    rows, cols, value = expected
    total = sum(map(sum, t.counts))
    assert (witness.rows, witness.cols, witness.value) == (rows, cols,
                                                          Fraction(value, total * total))


def float_minor(c, j, j2, k, k2):
    """The minor as a float64 kernel computes it from the cells."""
    return float(c[j][k]) * float(c[j2][k2]) - float(c[j][k2]) * float(c[j2][k])


def test_a_float_table_with_exact_entries_keeps_the_float64_witness():
    """Fraction entries of a float table enter the search, and its witness, as floats."""
    a, d = Fraction(24, 997), Fraction(39, 991)
    b, c = 0.004740535365471266, 0.931833060295376
    t = JointTable(*labelled([[0, 0], [0, 0]]), ((a, b), (c, d)))
    assert a * d - b * c != float(a) * float(d) - b * c  # exact products round otherwise
    assert _max_minor(t).value.hex() == (float(a) * float(d) - b * c).hex()


class TestWitnessProperties:
    """What the witness must satisfy whichever arithmetic the search takes."""

    @settings(max_examples=200)
    @given(minor_counts(), st.randoms(use_true_random=False))
    def test_permuting_rows_and_columns_keeps_verdict_and_witness_size(self, counts, rnd):
        rows, cols = list(range(len(counts))), list(range(len(counts[0])))
        rnd.shuffle(rows)
        rnd.shuffle(cols)
        permuted = [[counts[j][k] for k in cols] for j in rows]
        report, moved = is_product(table(counts)), is_product(table(permuted))
        assert moved.verdict == report.verdict
        if report.witness is not None:
            assert abs(moved.witness.value) == abs(report.witness.value)
            (j, j2), (k, k2) = moved.witness.rows, moved.witness.cols
            total = sum(map(sum, counts))
            size = abs(minor(counts, rows[j], rows[j2], cols[k], cols[k2]))
            assert Fraction(size, total * total) == abs(report.witness.value)

    @settings(max_examples=200)
    @given(minor_counts(), st.integers(1, 2**40))
    def test_scaling_every_count_keeps_verdict_and_witness(self, counts, k):
        """Up to 2^40, so one table is searched in int64 and, scaled, through the filter."""
        report = is_product(table(counts))
        scaled = is_product(table([[c * k for c in row] for row in counts]))
        assert scaled.verdict == report.verdict
        if report.witness is not None:
            w, ws = report.witness, scaled.witness
            assert (ws.rows, ws.cols, ws.value) == (w.rows, w.cols, w.value)

    @settings(max_examples=200)
    @given(minor_counts(), st.sampled_from(("counts", "floats")),
           st.lists(st.one_of(st.fractions(0, 1), st.floats(0, 1e-3)), min_size=2, max_size=2))
    def test_verdict_is_monotone_in_the_tolerance(self, counts, kind, tols):
        t = table(counts)
        if kind == "floats":
            t = JointTable(t.row_outcomes, t.col_outcomes, t.as_floats())
        verdicts = [is_product(t, tol).verdict for tol in sorted(tols + [t._residual])]
        assert verdicts == sorted(verdicts)  # "entangled" up to some tolerance, then "product"


def perturbed(rng, n, m, low, high):
    """An outer product of factors in [low, high] with one cell raised by 1 to 50."""
    u = [rng.randint(low, high) for _ in range(n)]
    v = [rng.randint(low, high) for _ in range(m)]
    counts = [[a * b for b in v] for a in u]
    counts[n // 2][m // 2] += rng.randint(1, 50)
    return counts


class TestFilteredSearch:
    """Exact tables past int64 are filtered in float64: the witness must stay exact."""

    def test_minors_one_apart_that_float64_rounds_equal(self):
        """Near 2^70 the later minor is larger by 1, which float64 cannot see."""
        y = 2**20 + 5
        counts = [[2**35, y, y - 1], [1, 2**35, 2**35]]
        assert minor(counts, 0, 1, 0, 2) == minor(counts, 0, 1, 0, 1) + 1
        assert float_minor(counts, 0, 1, 0, 2) == float_minor(counts, 0, 1, 0, 1)
        assert _max_minor(table(counts)).cols == (0, 2)
        assert_kernel_matches_count_oracle(table(counts))
        transposed = [list(col) for col in zip(*counts)]
        assert _max_minor(table(transposed)).rows == (0, 2)
        assert_kernel_matches_count_oracle(table(transposed))

    def test_exact_ties_among_cells_above_2_53(self):
        x, y, v = 1053565518431845986, 771097954672714946, 1006497743411020352
        # Column 3 repeats column 1, and column 2 gives the same exact minor against
        # column 0, which float64 rounds larger.
        counts = [[x, y, x + y, y], [1, v, v + 1, v]]
        assert minor(counts, 0, 1, 0, 1) == minor(counts, 0, 1, 0, 2) == minor(counts, 0, 1, 0, 3)
        assert abs(float_minor(counts, 0, 1, 0, 2)) > abs(float_minor(counts, 0, 1, 0, 1))
        for c in (counts, [list(col) for col in zip(*counts)]):
            w = _max_minor(table(c))
            assert (w.rows, w.cols) == (((0, 1), (0, 1)))
            assert_kernel_matches_count_oracle(table(c))

    @pytest.mark.parametrize("base", [2**1100, 10**400, 2**53 + 1],
                             ids=["2**1100", "10**400", "2**53+1"])
    def test_cells_beyond_float_range(self, base):
        """Shifted into range before the filter; a minor of 1 among cells of 2^1100 is found."""
        counts = [[base, base + 1], [base - 1, base]]
        w = _max_minor(table(counts))
        total = 4 * base
        assert (w.rows, w.cols, w.value) == ((0, 1), (0, 1), Fraction(1, total * total))
        rng = random.Random(base % 1000)
        for n, m in ((3, 4), (5, 5), (2, 7)):
            counts = [[base + rng.randint(-9, 9) * rng.choice((1, base >> 60)) for _ in range(m)]
                      for _ in range(n)]
            assert_kernel_matches_count_oracle(table(counts))

    @pytest.mark.parametrize("shape", [(2, 2), (2, 16), (16, 2), (3, 9), (7, 7), (9, 12),
                                       (12, 9), (16, 16)])
    def test_shapes_up_to_16x16(self, shape):
        n, m = shape
        rng = random.Random(100 * n + m)
        for counts in (perturbed(rng, n, m, 2**16, 2**17),
                       perturbed(rng, n, m, 2**40, 2**41),
                       [[rng.randint(0, 2**34) for _ in range(m)] for _ in range(n)],
                       [[rng.choice((0, 2**62, 2**62 + 1)) for _ in range(m)] for _ in range(n)]):
            assert_kernel_matches_count_oracle(table(counts))

    def test_a_40x40_table_is_searched_row_by_row(self):
        rng = random.Random(40)
        assert 780 * 780 > contextrep.joint._ONE_ARRAY
        assert_kernel_matches_count_oracle(table(perturbed(rng, 40, 40, 2**20, 2**21)))
        assert_kernel_matches_count_oracle(table(perturbed(rng, 40, 40, 1, 60)))

    @settings(max_examples=200)
    @given(minor_counts(), st.sampled_from(("counts", "fractions", "floats")),
           st.integers(1, 40), st.booleans())
    def test_blocks_of_any_size_give_the_first_maximum(self, counts, kind, block, one_array):
        """Row by row over blocks of a few column pairs, ties across blocks go to loop order."""
        counts = [[c * 2**24 if c > 9 else c for c in row] for row in counts]
        t = table(counts)
        if kind == "fractions":
            t = JointTable(t.row_outcomes, t.col_outcomes, t.probs)
        elif kind == "floats":
            t = JointTable(t.row_outcomes, t.col_outcomes, t.as_floats())
        with mock.patch.multiple(contextrep.joint, _MINOR_BLOCK=block,
                                 _ONE_ARRAY=2**14 if one_array else 0):
            assert_kernel_matches_oracle(t)

    def test_a_200x200_search_holds_a_few_blocks(self):
        """Peak traced allocation under 16 MB (row by row over all columns took 92 MB)."""
        rng = random.Random(200)
        t = table([[rng.randint(0, 1000) for _ in range(200)] for _ in range(200)])
        _ = t._form
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            assert _max_minor(t) is not None
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def assert_same_entry(got, expected):
    """One value of one type; floats to the last bit."""
    assert type(got) is type(expected)
    if isinstance(expected, float):
        assert got.hex() == expected.hex()
    else:
        assert got == expected


def float_report(t):
    """The report of `entanglement --float`: the table in floats, at its default tolerance."""
    cfg = {"arithmetic": "float", "tolerance": None, "phases": None}
    return _joint_sections(t, cfg, "table")["report"]


@st.composite
def product_counts(draw):
    """Outer products of two nonzero count vectors, up to 7x7 and 2^80 per cell."""
    cell = st.integers(0, draw(st.sampled_from((9, 2**40))))
    u = draw(st.lists(cell, min_size=1, max_size=7).filter(any))
    v = draw(st.lists(cell, min_size=1, max_size=7).filter(any))
    return [[a * b for b in v] for a in u]


class TestOneForm:
    """Marginals and residual read the table's (C, T, div) form, with no exact/float fork."""

    @settings(max_examples=300)
    @given(minor_counts(), st.sampled_from(("counts", "fractions", "floats", "int zeros")))
    def test_marginals_and_residual_match_scalar_formulas(self, counts, kind):
        """Each form of a table gives the scalar formulas' values and entry types.

        "int zeros" is the float table with its zero entries given as the int 0,
        so an all-zero row or column sums to an int.
        """
        t = JointTable.from_counts(*labelled(counts), counts)
        if kind == "fractions":
            t = JointTable(t.row_outcomes, t.col_outcomes, t.probs)
        elif kind == "floats":
            t = JointTable(t.row_outcomes, t.col_outcomes, t.as_floats())
        elif kind == "int zeros":
            probs = tuple(tuple(p or 0 for p in row) for row in t.as_floats())
            t = JointTable(t.row_outcomes, t.col_outcomes, probs)
        report = is_product(t)
        rows, cols = marginals_oracle(t.probs)
        for got, expected in zip(report.marginals.row.probs + report.marginals.col.probs,
                                 rows + cols, strict=True):
            assert_same_entry(got, expected)
        assert_same_entry(report.residual, residual_oracle(t.probs))

    @settings(max_examples=200)
    @given(product_counts())
    def test_exact_and_float_verdicts_agree_on_rational_products(self, counts):
        t = JointTable.from_counts(*labelled(counts), counts)
        assert is_product(t).verdict == "product"
        report = float_report(t)
        assert (report["arithmetic"], report["verdict"]) == ("float", "product")

    def test_float_sum_above_one_is_one(self):
        """One row of four entries c / T sums to 1 + 2^-52 in floats; the marginal is 1.0."""
        counts = [[151, 283879, 164975, 3]]
        t = JointTable.from_counts(*labelled(counts), counts)
        floats = JointTable(t.row_outcomes, t.col_outcomes, t.as_floats())
        assert sum(floats.probs[0]) == 1 + 2**-52
        assert marginals(floats).row.probs == (1.0,)
        assert float_report(t)["verdict"] == "product"


def rational_product(a, b):
    """The lcm-form rational table of two exact distributions: Fractions, no counts."""
    return tensor_product_real(
        build_real_context(ProbabilityVector(labelled([a])[1], a), CTX),
        build_real_context(ProbabilityVector(labelled([b])[1], b), CTX),
    )


#: One product table in each form: counts, lcm-form rationals, floats.
PRODUCT_TABLES = {
    "counts": lambda: JointTable.from_counts(ROWS, COLS, ((2, 4), (3, 6))),
    "rational": lambda: rational_product((Fraction(2, 5), Fraction(3, 5)),
                                         (Fraction(1, 3), Fraction(2, 3))),
    "floats": lambda: JointTable(ROWS, COLS, ((0.18, 0.42), (0.12, 0.28))),
}


@pytest.fixture
def residual_calls(monkeypatch):
    """The tables whose residual is computed while the test runs, one entry per computation."""
    calls = []
    compute = JointTable._residual.func

    def counted(t):
        calls.append(t)
        return compute(t)

    prop = functools.cached_property(counted)
    prop.__set_name__(JointTable, "_residual")
    monkeypatch.setattr(JointTable, "_residual", prop)
    return calls


class TestComputedOncePerTable:
    """is_product and factorization_certificate share one table's marginals and residual."""

    @pytest.mark.parametrize("kind", sorted(PRODUCT_TABLES))
    def test_decisions_share_marginals_and_residual(self, kind, residual_calls):
        t = PRODUCT_TABLES[kind]()
        report = is_product(t)
        assert report.verdict == "product"
        assert report.marginals is marginals(t)
        row, col = factorization_certificate(t)
        assert row is report.marginals.row and col is report.marginals.col
        assert report.residual is t._residual
        assert len(residual_calls) == 1 and residual_calls[0] is t

    def test_each_table_has_its_own(self, residual_calls):
        first, second = PRODUCT_TABLES["counts"](), PRODUCT_TABLES["counts"]()
        assert marginals(first) is not marginals(second)
        is_product(first)
        is_product(second)
        assert [id(t) for t in residual_calls] == [id(first), id(second)]


def count_simplex_checks(monkeypatch):
    """Wrap `check_simplex` where ProbabilityVector calls it; the values of each call."""
    calls = []
    check = contextrep.probability.check_simplex

    def counted(values, *args):
        calls.append(tuple(values))
        return check(values, *args)

    monkeypatch.setattr(contextrep.probability, "check_simplex", counted)
    return calls


def assert_same_checked_vector(vector, expected):
    """`vector` equals the checked ProbabilityVector of `expected`, entry types included."""
    checked = ProbabilityVector(vector.outcomes, tuple(expected))
    assert vector == checked
    assert [type(p) for p in vector.probs] == [type(p) for p in checked.probs]
    assert all(type(p) is Fraction for p in vector.probs)


class TestCountsImplySimplex:
    """Integer counts over their total skip the simplex check; float vectors keep it."""

    @pytest.mark.parametrize(
        "make", [PRODUCT_TABLES["counts"], PRODUCT_TABLES["rational"], animal_acts_joint],
        ids=["counts", "rational", "entangled-counts"])
    def test_exact_marginals_skip_the_check(self, make, monkeypatch):
        t = make()
        calls = count_simplex_checks(monkeypatch)
        m = marginals(t)
        assert calls == []
        rows, cols = marginals_oracle(t.probs)
        assert_same_checked_vector(m.row, rows)
        assert_same_checked_vector(m.col, cols)
        assert len(calls) == 2  # the checked vectors above did call it

    def test_probabilities_from_counts_skip_the_check(self, monkeypatch):
        counts = CountTable(OutcomeSet(("a", "b", "c")), (0, 3, 9))
        calls = count_simplex_checks(monkeypatch)
        p = probabilities_from_counts(counts)
        assert calls == []
        assert_same_checked_vector(p, (Fraction(0), Fraction(1, 4), Fraction(3, 4)))

    def test_float_marginals_are_checked(self, monkeypatch):
        t = PRODUCT_TABLES["floats"]()
        calls = count_simplex_checks(monkeypatch)
        m = marginals(t)
        assert calls == [m.row.probs, m.col.probs]


@st.composite
def tables_with_phases(draw):
    """A count table or an lcm-form rational table, exact or in --float form, with phases.

    Phases are None (the default zeros) or one finite angle per cell, any sign.
    """
    if draw(st.booleans()):
        sizes = st.integers(1, 5)
        t = rational_product(draw(sizes.flatmap(distributions)),
                             draw(sizes.flatmap(distributions)))
    else:
        counts = draw(minor_counts())
        t = JointTable.from_counts(*labelled(counts), counts)
    if draw(st.booleans()):
        t = JointTable(t.row_outcomes, t.col_outcomes, t.as_floats())
    angle = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)
    size = t.n_rows * t.n_cols
    angles = draw(st.none() | st.lists(angle, min_size=size, max_size=size))
    return t, None if angles is None else PhaseAssignment(angles)


def float_bits(values):
    """The exact bits of each value's real and imaginary parts, in hex."""
    return [(v.real.hex(), v.imag.hex()) for v in map(complex, values)]


class TestJointVectorsOracle:
    """build_joint_vectors against sqrt(float(p)) * exp(i * angle), cell by cell."""

    @settings(max_examples=300)
    @given(tables_with_phases())
    def test_amplitudes_bit_for_bit(self, case):
        t, phases = case
        real, w = build_joint_vectors(t, phases)
        entries = tuple(p for row in t.probs for p in row)
        assert real == entries and list(map(type, real)) == list(map(type, entries))
        angles = phases.angles if phases is not None else (0.0,) * len(entries)
        assert float_bits(w.phases) == float_bits(angles)
        assert float_bits(w.amplitudes) == float_bits(joint_vectors_oracle(t.probs, angles))

    @settings(max_examples=200)
    @given(tables_with_phases(), st.data())
    def test_phases_leave_moduli_bit_for_bit(self, case, data):
        """The moduli are the zero-phase vector's for any finite phases."""
        t, _ = case
        angle = st.floats(allow_nan=False, allow_infinity=False)
        size = t.n_rows * t.n_cols
        phases = PhaseAssignment(data.draw(st.lists(angle, min_size=size, max_size=size)))
        assert float_bits(build_joint_vectors(t, phases)[1].moduli()) == float_bits(
            build_joint_vectors(t)[1].moduli())


class TestFactorizationCertificate:
    def test_recovers_exact_factors(self):
        a = (Fraction(2, 5), Fraction(3, 5))
        b = (Fraction(1, 2), Fraction(1, 2))
        t = tensor_product_real(
            build_real_context(ProbabilityVector(ROWS, a), CTX),
            build_real_context(ProbabilityVector(COLS, b), CTX),
        )
        cert = factorization_certificate(t)
        assert cert is not None
        assert cert[0].probs == a
        assert cert[1].probs == b

    def test_absent_for_entangled_tables(self):
        assert factorization_certificate(animal_acts_joint()) is None
        assert factorization_certificate(vessels_ideal()) is None

    def test_zero_row_never_blocks(self):
        t = JointTable.from_counts(ROWS, COLS, ((3, 9), (0, 0)))
        cert = factorization_certificate(t)
        assert cert is not None
        assert cert[0].probs == (Fraction(1), Fraction(0))

    @settings(max_examples=200)
    @given(count_tables())
    def test_agrees_with_verdict_and_integer_minors(self, counts):
        n, m = len(counts), len(counts[0])
        t = JointTable.from_counts(
            OutcomeSet(tuple(f"r{j}" for j in range(n))),
            OutcomeSet(tuple(f"c{k}" for k in range(m))),
            counts,
        )
        minors_vanish = all(
            counts[j][k] * counts[j2][k2] == counts[j][k2] * counts[j2][k]
            for j, j2 in combinations(range(n), 2)
            for k, k2 in combinations(range(m), 2)
        )
        cert = factorization_certificate(t)
        assert (cert is not None) == (is_product(t).verdict == "product") == minors_vanish
        if cert is not None:
            row, col = cert
            assert all(
                row.probs[j] * col.probs[k] == t.probs[j][k] for j in range(n) for k in range(m)
            )

    def test_float_path_uses_tolerance(self):
        t = JointTable(ROWS, COLS, ((0.18, 0.42), (0.12, 0.28)))
        cert = factorization_certificate(t)
        assert cert is not None
        assert cert[0].as_floats() == pytest.approx((0.6, 0.4))


class TestJointParsing:
    CSV = "row_label,col_label,count\nHorse,Growls,4\nHorse,Whinnies,51\nBear,Growls,21\nBear,Whinnies,5\n"

    def test_csv_happy_path(self):
        t = parse_joint_csv(self.CSV)
        assert t.counts == ((4, 51), (21, 5))
        assert t.row_outcomes.labels == ("Horse", "Bear")

    def test_csv_bad_header(self):
        with pytest.raises(ParseError):
            parse_joint_csv("a,b,c\nx,y,1\n")

    def test_csv_non_rectangular(self):
        with pytest.raises(InvalidJointTable):
            parse_joint_csv("row_label,col_label,count\na,x,1\na,y,2\nb,x,3\n")

    def test_csv_duplicate_cell(self):
        with pytest.raises(InvalidJointTable):
            parse_joint_csv("row_label,col_label,count\na,x,1\na,x,2\n")
        # Rows are checked as they are read, so the duplicate wins over a later bad count.
        with pytest.raises(InvalidJointTable):
            parse_joint_csv("row_label,col_label,count\na,x,1\na,x,2\nb,y,oops\n")

    @pytest.mark.parametrize(
        "text", ["", "row_label,col_label,count\n", " row_label , col_label,count\n\n"]
    )
    def test_csv_without_rows(self, text):
        with pytest.raises(ParseError):
            parse_joint_csv(text)

    def test_csv_bad_count_has_line(self):
        with pytest.raises(ParseError) as exc:
            parse_joint_csv("row_label,col_label,count\na,x,oops\n")
        assert "line 2" in str(exc.value)
        with pytest.raises(ParseError) as exc:
            parse_joint_csv("row_label,col_label,count\na,x,1\n\na,y\n")
        assert "expected 3 fields, got 2 (line 4)" in str(exc.value)

    def test_json_happy_path(self):
        t = parse_joint_json(
            '{"rows": ["M", "L"], "cols": ["M", "L"], "counts": [[0, 500], [500, 0]]}'
        )
        assert t.probs == (
            (Fraction(0), Fraction(1, 2)),
            (Fraction(1, 2), Fraction(0)),
        )

    def test_json_duplicate_key_refused(self):
        text = ('{"rows": ["a", "b"], "cols": ["x", "y"], '
                '"counts": [[1, 0], [0, 1]], "counts": [[1, 1], [1, 1]]}')
        with pytest.raises(InvalidCounts, match="duplicate key 'counts'"):
            parse_joint_json(text)

    def test_json_shape_mismatch(self):
        with pytest.raises(InvalidJointTable):
            parse_joint_json('{"rows": ["a"], "cols": ["x", "y"], "counts": [[1]]}')

    def test_json_syntax_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse_joint_json('{"rows": }')
        assert "line 1" in str(exc.value)
