"""Outcome sets, count tables, and probability vectors.

Probabilities built from counts are carried as exact `fractions.Fraction`
values and only materialized as floats at report boundaries.  Downstream
factorization decisions are exact non-existence claims, so the exactness of
this layer is what makes them decisive.

Entries of a probability vector may be `Fraction`/`int` (exact) or `float`;
a vector is *exact* when every entry is exact, and then its entries must sum
to one exactly.  Float vectors must sum to one within ``SUM_TOLERANCE``.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterator, Mapping, Sequence, Union

from .errors import InvalidCounts, InvalidDistribution, ParseError

Value = Union[Fraction, int, float]

#: Allowed deviation of a float probability vector's sum from 1.
SUM_TOLERANCE = 1e-12


def is_integer(x: object) -> bool:
    """True for a Python int that is not a bool: the type half of the count rule."""
    return isinstance(x, int) and not isinstance(x, bool)


def is_exact_value(x: Value) -> bool:
    """True for entries carried exactly (Fraction or int, never bool)."""
    return isinstance(x, Fraction) or is_integer(x)


def shown(x: object, form: Callable[[object], str] = repr) -> str:
    """form(x); an int too long for str(), alone or in a Fraction, shows as its sign and digits."""
    try:
        return form(x)
    except ValueError:  # past sys.get_int_max_str_digits(), which only these two reach
        if isinstance(x, Fraction):
            return f"Fraction({shown(x.numerator)}, {shown(x.denominator)})"
        digits = int(abs(x).bit_length() * 0.30102)  # at most its length: log10(2) > 0.30102
        while 10**digits <= abs(x):
            digits += 1
        return f"{'a negative' if x < 0 else 'an'} integer of {digits} digits"


def as_float(x: object, error: type[Exception], what: str) -> float:
    """float(x), or `error` naming `what` when x is an int or Fraction beyond float range."""
    try:
        return float(x)
    except OverflowError:  # an int or Fraction beyond float range, not inf
        raise error(f"{what} is too large for a float") from None


def check_index(k: int, n: int) -> None:
    """Raise IndexError unless k is the index of one of n outcomes."""
    if not 0 <= k < n:
        raise IndexError(f"outcome index {shown(k)} out of range for {n} outcomes")


def check_count(c: object, error: type[Exception], what: str) -> None:
    """Raise `error` unless the count `c`, named `what`, is a nonnegative integer."""
    if not is_integer(c) or c < 0:
        raise error(f"invalid {what}: {shown(c)} is not a nonnegative integer")


def check_job(trials: object, seed: object) -> None:
    """Raise ValueError unless trials is a positive int and seed a nonnegative one (no bool)."""
    if not is_integer(trials) or trials < 1:
        raise ValueError(f"trials must be a positive integer, got {shown(trials)}")
    if not is_integer(seed) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {shown(seed)}")


def count_matrix(counts: Sequence[Sequence[int]], n_rows: int, n_cols: int,
                 error: type[Exception]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(rows as tuples, total); `error` unless an n_rows x n_cols count matrix totals >= 1."""
    rows = tuple(map(tuple, counts))
    if [len(row) for row in rows] != [n_cols] * n_rows:
        raise error(f"counts matrix shape must be {n_rows} x {n_cols}")
    # Every cell an int (not a bool or subclass) and none negative, checked at C
    # speed; otherwise the cell loop names the first bad one.
    if set().union(*[map(type, row) for row in rows]) != {int} or min(map(min, rows)) < 0:
        for j, row in enumerate(rows):
            for k, c in enumerate(row):
                check_count(c, error, f"count at cell ({j}, {k})")
    total = sum(map(sum, rows))
    if total < 1:
        raise error("total count must be at least 1")
    return rows, total


def display_rounded(x: Value) -> str:
    """Two-decimal display string, the rounding convention used in reports."""
    return f"{float(x):.2f}"


def check_simplex(values: Sequence[Value], error: type[Exception], what: str) -> None:
    """Raise `error` unless the entries, named `what`, lie in [0, 1] and sum to 1.

    Exact entries must sum to 1 exactly, floats within SUM_TOLERANCE.
    """
    for i, x in enumerate(values):
        if not (0 <= x <= 1):
            raise error(f"{what}[{i}] = {shown(x)} out of [0, 1]")
    total = sum(values)
    if all(is_exact_value(x) for x in values):
        if total != 1:
            raise error(f"exact {what} must sum to 1, got {shown(total, str)}")
    elif abs(total - 1) > SUM_TOLERANCE:
        raise error(f"{what} sum to {total!r}, not 1")


def value_entry(x: Value) -> dict:
    """Report form of a probability: full float, two-decimal display, exact fraction.

    The display is `display_rounded(x)`; an exact value's str is its fraction.
    """
    f = float(x)
    return {"value": f, "display": f"{f:.2f}", "exact": str(x) if is_exact_value(x) else None}


@dataclass(frozen=True)
class OutcomeSet:
    """Ordered, distinct outcome labels; position j is the basis index of label j."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) < 1:
            raise InvalidDistribution("an outcome set needs at least one label")
        if len(set(self.labels)) != len(self.labels):
            raise InvalidDistribution(f"duplicate outcome labels in {self.labels!r}")
        if any(not isinstance(l, str) or not l for l in self.labels):
            raise InvalidDistribution("outcome labels must be nonempty strings")

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self.labels.index(label)


@dataclass(frozen=True)
class CountTable:
    """Nonnegative integer counts per outcome, with a strictly positive total."""

    outcomes: OutcomeSet
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", tuple(self.counts))
        if len(self.counts) != self.outcomes.n:
            raise InvalidCounts("one count per outcome label is required")
        for label, c in zip(self.outcomes.labels, self.counts):
            check_count(c, InvalidCounts, f"count for {label!r}")
        if self.total < 1:
            raise InvalidCounts("total count must be at least 1")

    @property
    def total(self) -> int:
        return sum(self.counts)

    @classmethod
    def from_mapping(cls, counts: Mapping[str, int]) -> "CountTable":
        return cls(OutcomeSet(tuple(counts.keys())), tuple(counts.values()))

    def as_mapping(self) -> dict[str, int]:
        return dict(zip(self.outcomes.labels, self.counts))


@dataclass(frozen=True)
class ProbabilityVector:
    """A point of the outcome simplex: one probability per outcome label."""

    outcomes: OutcomeSet
    probs: tuple[Value, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "probs", tuple(self.probs))
        if len(self.probs) != self.outcomes.n:
            raise InvalidDistribution("one probability per outcome label is required")
        check_simplex(self.probs, InvalidDistribution, "probabilities")

    @property
    def is_exact(self) -> bool:
        return all(is_exact_value(p) for p in self.probs)

    def __len__(self) -> int:
        return self.outcomes.n

    def __getitem__(self, j: int) -> Value:
        return self.probs[j]

    def as_floats(self) -> tuple[float, ...]:
        return tuple(float(p) for p in self.probs)

    def displayed(self) -> tuple[str, ...]:
        return tuple(display_rounded(p) for p in self.probs)

    def to_json_dict(self) -> dict:
        return {label: value_entry(p) for label, p in zip(self.outcomes.labels, self.probs)}


@dataclass(frozen=True)
class ContextId:
    """Opaque identifiers for (entity, state, measurement); no structure assumed."""

    entity: str
    state: str
    measurement: str

    def __post_init__(self) -> None:
        for name in ("entity", "state", "measurement"):
            if not getattr(self, name):
                raise InvalidDistribution(f"context field {name!r} must be nonempty")

    def as_dict(self) -> dict[str, str]:
        return {"entity": self.entity, "state": self.state, "measurement": self.measurement}


def _count_vector(outcomes: OutcomeSet, counts: Sequence[int], total: int) -> ProbabilityVector:
    """The counts over their total, one per outcome, built without `check_simplex`."""
    # Nonnegative integers over their positive sum lie in [0, 1] and sum to exactly 1.
    vector = object.__new__(ProbabilityVector)
    object.__setattr__(vector, "outcomes", outcomes)
    object.__setattr__(vector, "probs", tuple(Fraction(c, total) for c in counts))
    return vector


def probabilities_from_counts(counts: CountTable) -> ProbabilityVector:
    """Relative frequencies as exact rationals; scale-invariant in the counts."""
    return _count_vector(counts.outcomes, counts.counts, counts.total)


# ---------------------------------------------------------------------------
# Input rules shared by every count file: CSV rows of labels and a trailing
# integer count, and JSON whose syntax errors carry their position.
# ---------------------------------------------------------------------------


def count_rows(text: str, header: tuple[str, ...], what: str) -> Iterator[tuple]:
    """The rows of a count CSV as (*labels, count), streamed in file order.

    Trimmed header cells must equal `header`; blank lines are skipped; other
    rows need len(header) fields, the last a (trimmed) integer; labels stay
    verbatim.  Errors carry line numbers; `what` names an empty file.
    """
    reader = csv.reader(io.StringIO(text))
    first = next(reader, None)
    if first is None:
        raise ParseError(f"empty {what} file", line=1)
    if [h.strip() for h in first] != list(header):
        raise ParseError(f"expected header '{','.join(header)}', got {','.join(first)!r}", line=1)
    found = False
    for row in reader:
        if not row:
            continue
        line, raw = reader.line_num, row[-1].strip()
        if len(row) != len(header):
            raise ParseError(f"expected {len(header)} fields, got {len(row)}", line=line)
        try:
            count = int(raw)
        except ValueError:
            raise ParseError(f"count {raw!r} is not an integer", line=line) from None
        found = True
        yield (*row[:-1], count)
    if not found:
        raise ParseError("no count rows found", line=1)


def load_json(text: str, what: str = "", **kwargs) -> Any:
    """json.loads(text, **kwargs), a syntax error raised as ParseError with its position."""
    try:
        return json.loads(text, **kwargs)
    except json.JSONDecodeError as exc:
        name = f"{what} JSON" if what else "JSON"
        raise ParseError(f"invalid {name}: {exc.msg}", line=exc.lineno, column=exc.colno) from None


# ---------------------------------------------------------------------------
# Counts ingestion: CSV with header `label,count`, or a JSON object
# {label: count}.  Labels are preserved verbatim; duplicates are rejected.
# ---------------------------------------------------------------------------


def parse_counts_csv(text: str) -> CountTable:
    labels, counts = zip(*count_rows(text, ("label", "count"), "counts"))
    if len(set(labels)) != len(labels):
        raise InvalidCounts("duplicate labels in counts file")
    return CountTable(OutcomeSet(labels), counts)


def _reject_duplicate_keys(pairs: list, error: type = InvalidCounts, what: str = "counts") -> dict:
    """JSON object_pairs_hook: raise `error` on a repeated key of the JSON `what`."""
    out: dict[str, object] = {}
    for key, value in pairs:
        if key in out:
            raise error(f"duplicate key {key!r} in JSON {what}")
        out[key] = value
    return out


def parse_counts_json(text: str) -> CountTable:
    data = load_json(text, object_pairs_hook=_reject_duplicate_keys)
    if not isinstance(data, dict):
        raise ParseError("JSON counts must be an object of the form {label: count}")
    for label, value in data.items():
        if not is_integer(value):
            raise ParseError(f"count for {label!r} must be an integer, got {value!r}")
    return CountTable.from_mapping(data)  # type: ignore[arg-type]
