"""Complex representation: spectral families, amplitudes, Born rule, projectors."""

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextrep import (
    BlockSpectralFamily,
    ContextId,
    FamilyMismatch,
    InvalidFamily,
    InvalidPhases,
    OutcomeSet,
    PhaseAssignment,
    ProbabilityVector,
    apply_projector,
    born_probability,
    build_complex_context,
)

CTX = ContextId("test", "state", "measurement")


def make_distribution(values):
    labels = tuple(f"o{i}" for i in range(len(values)))
    return ProbabilityVector(OutcomeSet(labels), tuple(values))


def float_distributions(n):
    return (
        st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)
        .map(lambda xs: tuple(x / sum(xs) for x in xs))
    )


def float_bits(values):
    """The exact bits of each float, in hex."""
    return [float(v).hex() for v in values]


def block_families(n):
    """Random ordered partitions of {0..m-1} into n blocks of size 1..n."""

    @st.composite
    def strategy(draw):
        sizes = [draw(st.integers(1, n)) for _ in range(n)]
        m = sum(sizes)
        indices = iter(range(m))
        blocks = tuple(tuple(next(indices) for _ in range(s)) for s in sizes)
        return BlockSpectralFamily(m, blocks)

    return strategy()


class TestBlockSpectralFamily:
    def test_rank_one(self):
        fam = BlockSpectralFamily.rank_one(3)
        assert fam.m == 3
        assert fam.is_rank_one
        assert fam.blocks == ((0,), (1,), (2,))

    def test_rejects_dimension_out_of_range(self):
        with pytest.raises(InvalidFamily):
            BlockSpectralFamily(1, ((0,), ()))
        with pytest.raises(InvalidFamily):
            BlockSpectralFamily(5, ((0, 1), (2, 3, 4)))  # block of size 3 > n = 2

    def test_rejects_overlap(self):
        with pytest.raises(InvalidFamily):
            BlockSpectralFamily(2, ((0,), (0,)))

    def test_rejects_gap(self):
        with pytest.raises(InvalidFamily):
            BlockSpectralFamily(3, ((0,), (2,)))

    @pytest.mark.parametrize("blocks", [((False,), (True,)), ((0,), (1.0,))])
    def test_rejects_non_integer_index(self, blocks):
        with pytest.raises(InvalidFamily, match="invalid ambient index"):
            BlockSpectralFamily(2, blocks)

    def test_dimension_and_index_too_long_for_str_are_named_by_length(self):
        with pytest.raises(InvalidFamily, match="ambient dimension an integer of 5001 digits"):
            BlockSpectralFamily(10**5000, ((0,),))
        with pytest.raises(InvalidFamily,
                           match="invalid ambient index a negative integer of 5001 digits"):
            BlockSpectralFamily(2, ((0,), (-(10**5000),)))

    def test_accepts_maximal_dimension(self):
        fam = BlockSpectralFamily(4, ((0, 1), (2, 3)))
        assert fam.n_blocks == 2
        assert not fam.is_rank_one


class TestPhaseAssignment:
    def test_normalizes_modulo_two_pi(self):
        pa = PhaseAssignment((2 * math.pi + 0.5, -0.5))
        assert pa.angles[0] == pytest.approx(0.5)
        assert pa.angles[1] == pytest.approx(2 * math.pi - 0.5)

    def test_tiny_negative_angle_wraps_to_zero(self):
        """-1e-20 % 2pi rounds to 2pi itself; the stored angle stays below 2pi."""
        assert PhaseAssignment((-1e-20,)).angles == (0.0,)

    def test_from_mapping_defaults_missing_to_zero(self):
        pa = PhaseAssignment.from_mapping({"b": 1.0}, labels=("a", "b"))
        assert pa.angles == (0.0, 1.0)

    def test_from_mapping_rejects_unknown_label(self):
        with pytest.raises(InvalidPhases):
            PhaseAssignment.from_mapping({"zz": 1.0}, labels=("a", "b"))

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidPhases):
            PhaseAssignment((math.nan,))

    def test_rejects_an_integer_too_large_for_a_float(self):
        """Refused as a phase, as inf is, not left to float()'s OverflowError."""
        with pytest.raises(InvalidPhases, match="phase at index 1 is too large for a float"):
            PhaseAssignment((0.5, 10**400))
        with pytest.raises(InvalidPhases, match="index 0"):
            PhaseAssignment.from_mapping({"a": 10**400}, labels=("a", "b"))

    def test_only_ints_floats_and_fractions_are_phases(self):
        """float() would take a str, bytes or bool; the refusal names the phase's index."""
        for bad in ("1.5", b"1", True, 2 + 0j, None):
            with pytest.raises(InvalidPhases, match="phase at index 1 must be a number"):
                PhaseAssignment((0.5, bad))
            with pytest.raises(InvalidPhases, match="phase at index 0 must be a number"):
                PhaseAssignment.from_mapping({"a": bad}, labels=("a", "b"))
        assert PhaseAssignment((1, 0.5, Fraction(1, 4))).angles == (1.0, 0.5, 0.25)


class TestBuildComplexContext:
    def test_rank_one_moduli_are_square_roots(self):
        p = make_distribution((Fraction(43, 81), Fraction(38, 81)))
        w = build_complex_context(p, CTX)
        assert w.moduli() == pytest.approx((math.sqrt(43 / 81), math.sqrt(38 / 81)))

    def test_two_decimal_displays(self):
        p = make_distribution((Fraction(43, 81), Fraction(38, 81)))
        w = build_complex_context(p, CTX)
        assert [f"{m:.2f}" for m in w.moduli()] == ["0.73", "0.68"]

    def test_block_amplitudes_split_weight(self):
        p = make_distribution((Fraction(1, 2), Fraction(1, 2)))
        fam = BlockSpectralFamily(3, ((0, 1), (2,)))
        w = build_complex_context(p, CTX, family=fam)
        assert w.moduli()[0] == pytest.approx(math.sqrt(0.25))
        assert w.moduli()[2] == pytest.approx(math.sqrt(0.5))

    def test_phases_enter_amplitudes(self):
        p = make_distribution((Fraction(1, 2), Fraction(1, 2)))
        w = build_complex_context(
            p, CTX, phases=PhaseAssignment((0.0, math.pi / 2))
        )
        assert w.amplitudes[1].real == pytest.approx(0.0, abs=1e-15)
        assert w.amplitudes[1].imag == pytest.approx(math.sqrt(0.5))

    def test_family_block_count_must_match(self):
        p = make_distribution((0.5, 0.5))
        with pytest.raises(FamilyMismatch):
            build_complex_context(p, CTX, family=BlockSpectralFamily.rank_one(3))

    def test_phase_length_must_match_ambient(self):
        p = make_distribution((0.5, 0.5))
        with pytest.raises(FamilyMismatch):
            build_complex_context(p, CTX, phases=PhaseAssignment((0.0, 0.0, 0.0)))

    @settings(max_examples=100)
    @given(
        st.integers(2, 6).flatmap(
            lambda n: st.tuples(float_distributions(n), block_families(n))
        )
    )
    def test_born_round_trip(self, pair):
        """Whatever the block structure, block weights reproduce the input."""
        values, fam = pair
        p = make_distribution(values)
        w = build_complex_context(p, CTX, family=fam)
        for k, target in enumerate(values):
            assert born_probability(w, k) == pytest.approx(target, abs=1e-12)
        assert sum(born_probability(w, k) for k in range(len(values))) == pytest.approx(
            1.0, abs=1e-12
        )

    @settings(max_examples=60)
    @given(
        float_distributions(3),
        st.lists(st.floats(0.0, 2 * math.pi - 1e-9), min_size=3, max_size=3),
    )
    def test_phases_never_change_probabilities(self, values, angles):
        p = make_distribution(values)
        plain = build_complex_context(p, CTX)
        phased = build_complex_context(p, CTX, phases=PhaseAssignment(tuple(angles)))
        assert phased.probabilities() == pytest.approx(plain.probabilities(), abs=1e-15)
        assert phased.moduli() == pytest.approx(plain.moduli(), abs=1e-15)

    @settings(max_examples=200)
    @given(
        st.integers(2, 6).flatmap(
            lambda n: st.tuples(float_distributions(n), block_families(n))
        ),
        st.data(),
    )
    def test_phases_leave_probabilities_bit_for_bit(self, pair, data):
        """Born probabilities and moduli read the stored moduli alone, for any finite phases."""
        values, fam = pair
        angle = st.floats(allow_nan=False, allow_infinity=False)
        angles = data.draw(st.lists(angle, min_size=fam.m, max_size=fam.m))
        p = make_distribution(values)
        plain = build_complex_context(p, CTX, family=fam)
        phased = build_complex_context(p, CTX, family=fam, phases=PhaseAssignment(angles))
        assert float_bits(phased.moduli()) == float_bits(plain.moduli())
        assert float_bits(phased.probabilities()) == float_bits(plain.probabilities())
        outcomes = range(len(values))
        assert float_bits(born_probability(phased, k) for k in outcomes) == float_bits(
            born_probability(plain, k) for k in outcomes)


class TestProjectors:
    def test_projection_keeps_only_block(self):
        p = make_distribution((Fraction(1, 4), Fraction(3, 4)))
        fam = BlockSpectralFamily(3, ((0, 1), (2,)))
        w = build_complex_context(p, CTX, family=fam)
        projected = apply_projector(w, 0)
        assert projected[2] == 0j
        assert abs(projected[0]) > 0 and abs(projected[1]) > 0

    def test_projection_weight_is_born_probability(self):
        p = make_distribution((0.3, 0.7))
        w = build_complex_context(p, CTX)
        projected = apply_projector(w, 1)
        assert sum(abs(a) ** 2 for a in projected) == pytest.approx(0.7)

    def test_orthogonality(self):
        """Projecting onto one block then another annihilates the vector."""
        p = make_distribution((0.5, 0.5))
        fam = BlockSpectralFamily(4, ((0, 1), (2, 3)))
        w = build_complex_context(p, CTX, family=fam)
        first = apply_projector(w, 0)
        second = tuple(
            a if j in set(fam.blocks[1]) else 0j for j, a in enumerate(first)
        )
        assert all(a == 0j for a in second)

    def test_index_out_of_range(self):
        p = make_distribution((0.5, 0.5))
        w = build_complex_context(p, CTX)
        with pytest.raises(IndexError):
            apply_projector(w, 2)
        with pytest.raises(IndexError):
            born_probability(w, -1)

    def test_index_too_long_for_str_is_named_by_length(self):
        w = build_complex_context(make_distribution((0.5, 0.5)), CTX)
        for project in (apply_projector, born_probability):
            with pytest.raises(IndexError, match="outcome index an integer of 5001 digits"):
                project(w, 10**5000)


class TestComplexContextVector:
    def test_unit_norm_enforced(self):
        from contextrep import ComplexContextVector

        fam = BlockSpectralFamily.rank_one(2)
        with pytest.raises(FamilyMismatch):
            ComplexContextVector(
                OutcomeSet(("a", "b")), (0.9, 0.9), (0.0, 0.0), fam, CTX
            )

    def test_nan_negative_or_infinite_modulus_refused(self):
        """A NaN norm once passed the unit-norm rule; a negative modulus squares to 1."""
        from contextrep import ComplexContextVector

        fam = BlockSpectralFamily.rank_one(2)
        for moduli in ((math.nan, 1.0), (-0.6, 0.8), (math.inf, 1.0)):
            with pytest.raises(FamilyMismatch):
                ComplexContextVector(OutcomeSet(("a", "b")), moduli, (0.0, 0.0), fam, CTX)

    def test_json_shape(self):
        p = make_distribution((Fraction(39, 81), Fraction(42, 81)))
        w = build_complex_context(p, CTX, phases=PhaseAssignment((0.0, 1.25)))
        d = w.to_json_dict()
        assert set(d) == {"context", "m", "blocks", "amplitudes", "probabilities"}
        assert d["m"] == 2
        assert d["amplitudes"][1]["im"] == pytest.approx(
            math.sqrt(42 / 81) * cmath.exp(1.25j).imag
        )
