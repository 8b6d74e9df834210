"""Counts, probability vectors, and ingestion."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from contextrep import (
    ContextId,
    CountTable,
    InvalidCounts,
    InvalidDistribution,
    JointTable,
    OutcomeSet,
    ParseError,
    ProbabilityVector,
    display_rounded,
    parse_counts_csv,
    parse_counts_json,
    probabilities_from_counts,
)
from contextrep.probability import check_count, count_matrix, is_exact_value, is_integer, shown


class TestOutcomeSet:
    def test_labels_and_index(self):
        s = OutcomeSet(("Horse", "Bear"))
        assert s.n == 2
        assert s.index("Bear") == 1

    def test_rejects_duplicates(self):
        with pytest.raises(InvalidDistribution):
            OutcomeSet(("a", "a"))

    def test_rejects_empty_label(self):
        with pytest.raises(InvalidDistribution):
            OutcomeSet(("a", ""))

    def test_rejects_no_outcomes(self):
        with pytest.raises(InvalidDistribution):
            OutcomeSet(())

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            OutcomeSet(("a", "b")).index("c")


class TestCountRule:
    @pytest.mark.parametrize("x", [0, 7, -3, 2**70])
    def test_ints_are_integers(self, x):
        assert is_integer(x)

    @pytest.mark.parametrize("x", [True, False, 1.0, Fraction(1), "1", None])
    def test_bools_and_other_types_are_not(self, x):
        assert not is_integer(x)

    def test_exact_values_use_the_same_test(self):
        assert is_exact_value(3) and is_exact_value(Fraction(1, 3))
        assert not is_exact_value(True) and not is_exact_value(0.5)

    @pytest.mark.parametrize("c", [-1, True, 1.5, "2", None])
    def test_check_count_raises_the_callers_class(self, c):
        with pytest.raises(ParseError, match=r"invalid count for 'a': .* is not a nonnegative"):
            check_count(c, ParseError, "count for 'a'")
        check_count(0, ParseError, "count for 'a'")

    @pytest.mark.parametrize("x, text", [
        (-(10**5000), "a negative integer of 5001 digits"),
        (10**4300, "an integer of 4301 digits"),
        (2**20000, "an integer of 6021 digits"),
        (10**4299, "1" + "0" * 4299),
        (-3, "-3"),
        ("2", "'2'"),
    ], ids=["negative-5001-digits", "4301-digits", "2**20000", "4300-digits", "small", "str"])
    def test_shown_gives_the_length_of_an_int_too_long_for_str(self, x, text):
        assert shown(x) == text

    def test_a_count_too_long_for_str_is_refused_as_invalid_counts(self):
        """The message names the count's length, not str()'s digit-limit ValueError."""
        with pytest.raises(InvalidCounts, match=r"invalid count for 'b': a negative integer "
                                                r"of 5001 digits is not a nonnegative integer"):
            CountTable(OutcomeSet(("a", "b")), (1, -(10**5000)))
        with pytest.raises(InvalidCounts, match=r"invalid count at cell \(1, 0\): a negative "
                                                r"integer of 5001 digits"):
            JointTable.from_counts(OutcomeSet(("a", "b")), OutcomeSet(("c",)),
                                   [[1], [-(10**5000)]])

    @pytest.mark.parametrize("bad", [True, 2.0, -1, None])
    def test_count_matrix_fast_path_falls_back_to_name_the_first_bad_cell(self, bad):
        """Only a table of plain nonnegative ints, of any size, skips the cell loop."""
        assert count_matrix(((1, 2), (3, 1 << 70)), 2, 2, InvalidCounts)[1] == 6 + (1 << 70)
        with pytest.raises(InvalidCounts, match=rf"invalid count at cell \(1, 2\): {bad!r} "):
            count_matrix(((1, 2, 3), (4, 5, bad), (bad, 0, 1)), 3, 3, InvalidCounts)

    def test_count_matrix_returns_rows_and_total(self):
        assert count_matrix([[1, 0], [2, 3]], 2, 2, InvalidCounts) == (((1, 0), (2, 3)), 6)

    @pytest.mark.parametrize(
        "counts, message",
        [
            ((), "shape must be 2 x 2"),
            (((1, 0), (2,)), "shape must be 2 x 2"),
            (((1, 0), (2, 3), (4, 5)), "shape must be 2 x 2"),
            (((1, 0), (-2, 3)), r"invalid count at cell \(1, 0\): -2 "),
            (((1, "0"), (2, 3)), r"invalid count at cell \(0, 1\): '0' "),
            (((1, 0), (2, False)), r"invalid count at cell \(1, 1\): False "),
            (((0, 0), (0, 0)), "total count must be at least 1"),
        ],
    )
    def test_count_matrix_refusals(self, counts, message):
        with pytest.raises(InvalidDistribution, match=message):
            count_matrix(counts, 2, 2, InvalidDistribution)


class TestCountTable:
    def test_total(self):
        t = CountTable(OutcomeSet(("H", "B")), (43, 38))
        assert t.total == 81
        assert t.as_mapping() == {"H": 43, "B": 38}

    def test_from_mapping_round_trip(self):
        t = CountTable.from_mapping({"G": 39, "W": 42})
        assert t.outcomes.labels == ("G", "W")
        assert t.counts == (39, 42)

    def test_rejects_negative(self):
        with pytest.raises(InvalidCounts):
            CountTable(OutcomeSet(("a", "b")), (1, -1))

    def test_refusal_names_the_label_and_the_count(self):
        with pytest.raises(InvalidCounts, match="invalid count for 'b': -1 is not"):
            CountTable(OutcomeSet(("a", "b")), (1, -1))
        with pytest.raises(InvalidCounts, match="invalid count for 'a': 1.0 is not"):
            CountTable(OutcomeSet(("a", "b")), (1.0, 1))

    def test_rejects_bool(self):
        with pytest.raises(InvalidCounts):
            CountTable(OutcomeSet(("a", "b")), (True, 1))

    def test_rejects_all_zero(self):
        with pytest.raises(InvalidCounts):
            CountTable(OutcomeSet(("a", "b")), (0, 0))


class TestProbabilityVector:
    def test_exact_sum_enforced(self):
        with pytest.raises(InvalidDistribution):
            ProbabilityVector(OutcomeSet(("a", "b")), (Fraction(1, 2), Fraction(1, 3)))

    def test_float_sum_tolerance(self):
        ProbabilityVector(OutcomeSet(("a", "b")), (0.5, 0.5 + 1e-13))
        with pytest.raises(InvalidDistribution):
            ProbabilityVector(OutcomeSet(("a", "b")), (0.5, 0.501))

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidDistribution):
            ProbabilityVector(OutcomeSet(("a", "b")), (Fraction(3, 2), Fraction(-1, 2)))

    def test_displayed(self):
        p = ProbabilityVector(OutcomeSet(("H", "B")), (Fraction(43, 81), Fraction(38, 81)))
        assert p.displayed() == ("0.53", "0.47")

    def test_is_exact(self):
        exact = ProbabilityVector(OutcomeSet(("a",)), (Fraction(1),))
        assert exact.is_exact
        assert not ProbabilityVector(OutcomeSet(("a", "b")), (0.5, 0.5)).is_exact


class TestProbabilitiesFromCounts:
    def test_animal_fractions(self):
        p = probabilities_from_counts(CountTable.from_mapping({"H": 43, "B": 38}))
        assert p.probs == (Fraction(43, 81), Fraction(38, 81))

    def test_single_outcome(self):
        p = probabilities_from_counts(CountTable.from_mapping({"X": 7}))
        assert p.probs == (Fraction(1),)

    def test_three_outcomes(self):
        p = probabilities_from_counts(CountTable.from_mapping({"A": 1, "B": 1, "C": 2}))
        assert p.as_floats() == (0.25, 0.25, 0.5)

    @given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=8))
    def test_always_sums_to_one_exactly(self, counts):
        """Exact rational division can never leak probability mass."""
        if sum(counts) == 0:
            counts[0] = 1
        labels = tuple(f"o{i}" for i in range(len(counts)))
        p = probabilities_from_counts(CountTable(OutcomeSet(labels), tuple(counts)))
        assert sum(p.probs) == 1
        assert all(isinstance(x, Fraction) for x in p.probs)


class TestDisplayRounded:
    def test_two_decimals(self):
        assert display_rounded(Fraction(43, 81)) == "0.53"
        assert display_rounded(Fraction(5, 81)) == "0.06"
        assert display_rounded(0.5) == "0.50"


class TestContextId:
    def test_as_dict(self):
        c = ContextId("vessels", "connected", "siphon")
        assert c.as_dict() == {
            "entity": "vessels",
            "state": "connected",
            "measurement": "siphon",
        }

    def test_rejects_blank(self):
        with pytest.raises(InvalidDistribution):
            ContextId("", "s", "m")


class TestParseCountsCsv:
    def test_happy_path(self):
        t = parse_counts_csv("label,count\nHorse,43\nBear,38\n")
        assert t.as_mapping() == {"Horse": 43, "Bear": 38}

    def test_bad_header(self):
        with pytest.raises(ParseError) as exc:
            parse_counts_csv("name,value\na,1\n")
        assert "line 1" in str(exc.value)

    def test_non_integer_count_has_line_number(self):
        with pytest.raises(ParseError) as exc:
            parse_counts_csv("label,count\na,1\nb,oops\n")
        assert "line 3" in str(exc.value)

    def test_duplicate_label(self):
        with pytest.raises(InvalidCounts):
            parse_counts_csv("label,count\na,1\na,2\n")

    def test_empty_file(self):
        with pytest.raises(ParseError):
            parse_counts_csv("")
        with pytest.raises(ParseError, match="no count rows"):
            parse_counts_csv(" label , count \n\n")


class TestParseCountsJson:
    def test_happy_path(self):
        t = parse_counts_json('{"G": 39, "W": 42}')
        assert t.as_mapping() == {"G": 39, "W": 42}

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse_counts_json('{"a": 1,}')
        assert "line 1" in str(exc.value)

    def test_duplicate_keys_rejected(self):
        with pytest.raises(InvalidCounts):
            parse_counts_json('{"a": 1, "a": 2}')

    def test_bool_count_rejected(self):
        with pytest.raises(ParseError):
            parse_counts_json('{"a": true, "b": 1}')

    def test_non_object_rejected(self):
        with pytest.raises(ParseError):
            parse_counts_json("[1, 2]")
