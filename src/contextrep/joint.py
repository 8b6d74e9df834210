"""Tensor-product joint representations and the product/entangled decision.

The README states the decision, its witness and its tolerances.  A joint
table is an n x n' probability matrix over outcome pairs (row j, column k);
its joint real vector lists the entries row-major (basis index j*n' + k).

Every table is decided through one form (C, T, div, R, K), built once, with
probs == C / T: the counts over their total; for a rational table without
counts, the probabilities times the lcm T of their denominators; for a float
table, its own entries over T = 1, with div(x, 1) == x (but a sum rounded
above 1 is 1.0), so every float bit and entry type is kept.  R and K are the
row and column sums of C; the marginals are div(R_j, T) and div(K_k, T), the
residual is div(max |T*C_jk - R_j*K_k|, T^2), and each 2x2 minor of probs is
div of the same minor of C by T^2, so exact tables are decided in integers.
The witness search alone picks an arithmetic: float64 for a float table (a
scalar loop's products and differences, so bit-identical witnesses), int64
while 2*max(C)^2 < 2^63 (nothing can overflow), and past that a float64
filter whose error bound leaves few minors to compute in Python ints.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Literal, Optional, Sequence

from .errors import (
    FamilyMismatch,
    InvalidCounts,
    InvalidJointTable,
    ParseError,
    UnsupportedFamily,
)
from .hilbert import AmplitudeVector, ComplexContextVector, PhaseAssignment, round_sig
from .probability import (
    OutcomeSet,
    ProbabilityVector,
    Value,
    _count_vector,
    _reject_duplicate_keys,
    as_float,
    check_simplex,
    count_matrix,
    count_rows,
    is_exact_value,
    is_integer,
    load_json,
    shown,
)
from .simplex import RealContextVector

# numpy is imported in the one function that computes with it, the witness
# search, not here: loading it takes about 100 ms that every `import
# contextrep` and numpy-free report would pay.

#: Default product-test tolerance for tables carried in floating point.
FLOAT_TOLERANCE = 1e-9

Cells = tuple[tuple[Value, ...], ...]
Sums = tuple[Value, ...]


def _over_one(x: Value, total: int) -> Value:
    """The div of a float table's form: x over its total 1 is x, every bit and type kept.

    Each value taken over T (a marginal, the residual, a minor's size) is at most
    1, but a float sum can round above it, as the entries c / T of one row can.
    """
    return x if x <= 1 else 1.0


@dataclass(frozen=True)
class JointTable:
    """Joint outcome probabilities for a paired measurement, optionally with counts."""

    row_outcomes: OutcomeSet
    col_outcomes: OutcomeSet
    probs: Optional[tuple[tuple[Value, ...], ...]]
    counts: Optional[tuple[tuple[int, ...], ...]] = None

    def __post_init__(self) -> None:
        if self.probs is None:  # from counts alone: one check, as InvalidCounts
            if self.counts is None:
                raise InvalidJointTable("probabilities or counts are required")
            counts, total = count_matrix(self.counts, self.n_rows, self.n_cols, InvalidCounts)
            object.__setattr__(self, "counts", counts)
            object.__setattr__(self, "probs",
                               tuple(tuple(Fraction(c, total) for c in row) for row in counts))
            object.__setattr__(self, "is_exact", True)  # every entry a Fraction, built above
            return
        object.__setattr__(self, "probs", tuple(tuple(row) for row in self.probs))
        if len(self.probs) != self.row_outcomes.n:
            raise InvalidJointTable("one probability row per row outcome is required")
        if any(len(row) != self.col_outcomes.n for row in self.probs):
            raise InvalidJointTable("rows must all have one entry per column outcome")
        # Exact probabilities equal to nonnegative counts over their positive
        # total lie in [0, 1] and sum to exactly 1, so the counts check below
        # implies the simplex check.
        if self.counts is None or not self.is_exact:
            check_simplex([p for r in self.probs for p in r], InvalidJointTable,
                          "joint probabilities")
        if self.counts is not None:
            counts, total = count_matrix(self.counts, self.n_rows, self.n_cols, InvalidJointTable)
            object.__setattr__(self, "counts", counts)
            if self.probs != tuple(tuple(Fraction(c, total) for c in row) for row in counts):
                raise InvalidJointTable("probabilities do not derive from the counts")

    @property
    def n_rows(self) -> int:
        return self.row_outcomes.n

    @property
    def n_cols(self) -> int:
        return self.col_outcomes.n

    @functools.cached_property
    def is_exact(self) -> bool:
        return all(is_exact_value(p) for row in self.probs for p in row)

    @functools.cached_property
    def _form(self) -> tuple[Cells, int, Callable[[Value, int], Value], Sums, Sums]:
        """(C, T, div, R, K): probs == C / T, R and K the raw sums of C's rows and columns."""
        if not self.is_exact:
            cells, total, div = self.probs, 1, _over_one
        elif self.counts is not None:
            cells, total, div = self.counts, sum(map(sum, self.counts)), Fraction
        else:
            ratios = [[p.as_integer_ratio() for p in row] for row in self.probs]
            total = math.lcm(*(den for row in ratios for _, den in row))  # == T: they sum to 1
            cells = tuple(tuple(num * (total // den) for num, den in row) for row in ratios)
            div = Fraction
        return cells, total, div, tuple(map(sum, cells)), tuple(map(sum, zip(*cells)))

    @functools.cached_property
    def _marginals(self) -> "Marginals":
        """Row and column sums over T; an exact table's are integer sums over their total."""
        _, total, div, *sums = self._form
        return Marginals(*(
            _count_vector(outcomes, s, total) if self.is_exact
            else ProbabilityVector(outcomes, tuple(div(x, total) for x in s))
            for outcomes, s in zip((self.row_outcomes, self.col_outcomes), sums)))

    @functools.cached_property
    def _residual(self) -> Value:
        """max |probs[j][k] - row[j] * col[k]|, the distance from the marginal outer product."""
        cells, total, div, row_sums, col_sums = self._form
        return div(max(abs(total * c - r * k) for row, r in zip(cells, row_sums)
                       for c, k in zip(row, col_sums)), total * total)

    def as_floats(self) -> tuple[tuple[float, ...], ...]:
        return tuple(tuple(float(p) for p in row) for row in self.probs)

    def combined_labels(self) -> tuple[str, ...]:
        """Row-major labels of the tensor basis, concatenated when unambiguous."""
        pairs = [(r, c) for r in self.row_outcomes.labels for c in self.col_outcomes.labels]
        joined = tuple(r + c for r, c in pairs)
        return joined if len(set(joined)) == len(pairs) else tuple(f"{r}|{c}" for r, c in pairs)

    @classmethod
    def from_counts(
        cls,
        row_outcomes: OutcomeSet,
        col_outcomes: OutcomeSet,
        counts: Sequence[Sequence[int]],
    ) -> "JointTable":
        return cls(row_outcomes, col_outcomes, None, counts)


@dataclass(frozen=True)
class Marginals:
    """Row and column sums of a joint table, each a probability vector."""

    row: ProbabilityVector
    col: ProbabilityVector


@dataclass(frozen=True)
class MinorWitness:
    """A nonvanishing 2x2 minor: rows (j, j'), columns (k, k'), and its value.

    value = probs[j][k] * probs[j'][k'] - probs[j][k'] * probs[j'][k]; any
    nonzero value certifies the table is not an outer product.
    """

    rows: tuple[int, int]
    cols: tuple[int, int]
    row_labels: tuple[str, str]
    col_labels: tuple[str, str]
    value: Value

    def to_json_dict(self) -> dict:
        return {
            "rows": list(self.rows),
            "cols": list(self.cols),
            "row_labels": list(self.row_labels),
            "col_labels": list(self.col_labels),
            "value": float(self.value),
            "value_exact": str(self.value) if is_exact_value(self.value) else None,
        }


@dataclass(frozen=True)
class EntanglementReport:
    """Verdict of the product test with the evidence needed to audit it."""

    verdict: Literal["product", "entangled"]
    marginals: Marginals
    residual: Value
    witness: Optional[MinorWitness]
    tolerance: Value
    arithmetic: Literal["exact", "float"]

    def __post_init__(self) -> None:
        if (self.verdict == "entangled") != (self.witness is not None):
            raise InvalidJointTable("witness must be present exactly for entangled verdicts")

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "marginals": {
                "row": self.marginals.row.to_json_dict(),
                "col": self.marginals.col.to_json_dict(),
            },
            "residual": float(self.residual),
            "residual_exact": str(self.residual) if is_exact_value(self.residual) else None,
            "witness": self.witness.to_json_dict() if self.witness else None,
            "tolerance": float(self.tolerance),
            "arithmetic": self.arithmetic,
        }


@dataclass(frozen=True)
class JointComplexVector(AmplitudeVector):
    """Moduli and phases over the tensor basis, row-major; squared moduli are the table."""

    row_outcomes: OutcomeSet
    col_outcomes: OutcomeSet
    magnitudes: tuple[float, ...]
    phases: tuple[float, ...]

    def __post_init__(self) -> None:
        self._hold_polar(self.row_outcomes.n * self.col_outcomes.n, InvalidJointTable)

    # The table's method reads only the two outcome sets, which this class shares.
    combined_labels = JointTable.combined_labels

    def to_json_dict(self) -> dict:
        return {
            "row_labels": list(self.row_outcomes.labels),
            "col_labels": list(self.col_outcomes.labels),
            "basis_labels": list(self.combined_labels()),
            "amplitudes": self.amplitude_entries(),
            "moduli": [round_sig(m) for m in self.moduli()],
            "phases": list(self.phases),
        }


def tensor_product_real(v1: RealContextVector, v2: RealContextVector) -> JointTable:
    """Outer product of two simplex points; exactness of the inputs is preserved."""
    probs = tuple(tuple(a * b for b in v2.probs) for a in v1.probs)
    return JointTable(v1.outcomes, v2.outcomes, probs)


def tensor_product_complex(
    w1: ComplexContextVector, w2: ComplexContextVector
) -> JointComplexVector:
    """Tensor product of two rank-1 context vectors; phases add per basis pair."""
    if not (w1.family.is_rank_one and w2.family.is_rank_one):
        raise UnsupportedFamily("tensor products require rank-1 projector blocks")
    moduli = tuple(a * b for a in w1.magnitudes for b in w2.magnitudes)
    phases = tuple(a + b for a in w1.phases for b in w2.phases)  # reduced mod 2*pi by the vector
    return JointComplexVector(w1.outcomes, w2.outcomes, moduli, phases)


def build_joint_vectors(
    t: JointTable, phases: PhaseAssignment | None = None
) -> tuple[tuple[Value, ...], JointComplexVector]:
    """The joint real vector (entries over the tensor basis) and complex vector.

    Basis order is row-major: basis index j * n_cols + k holds entry (j, k).
    Default phases are zero.
    """
    size = t.n_rows * t.n_cols
    if phases is None:
        phases = PhaseAssignment.zeros(size)
    if len(phases) != size:
        raise FamilyMismatch(
            f"phase assignment covers {len(phases)} indices, tensor basis has {size}"
        )
    real = tuple(p for row in t.probs for p in row)
    cells, total, *_ = t._form  # p == c / T exactly, and c / T rounds as float(p) does
    moduli = tuple(math.sqrt(c / total) for c in itertools.chain.from_iterable(cells))
    return real, JointComplexVector(t.row_outcomes, t.col_outcomes, moduli, phases)


def marginals(t: JointTable) -> Marginals:
    """Row and column sums; the only candidate factor pair for the product test."""
    return t._marginals


#: A table of at most this many 2x2 minors (every square up to 16x16) is searched
#: as one array over all (row pair, column pair) minors, a larger one row by row
#: against all later rows.  Timed on random tables (2 vCPUs, numpy 2.4), one array
#: takes half the time up to 12x12 and at 4x64 or 64x4, ties at 16x16, and takes
#: 1.2 times as long at 18x18 and 1.9 at 24x24.
_ONE_ARRAY = 2**14
#: Row by row, at most this many minors (0.5 MB) per array, over blocks of column pairs.
_MINOR_BLOCK = 2**16


def _max_minor(t: JointTable) -> Optional[MinorWitness]:
    """The first 2x2 minor of maximal absolute value in (j, j', k, k') loop order.

    None when every minor is zero.  Float tables are searched in float64 and
    exact ones in int64 while 2*max(C)^2 < 2^63, so nothing overflows; the
    winner is recomputed from the searched entries by the same operations.

    Larger exact tables are filtered in float64, then decided in Python ints.
    Cells are shifted right by s = max(0, bits(max C) - 510), so products stay
    below 2^1020, and rounded: a_i = fl(C_i >> s).  With u = 2^-53, A =
    fl(max C >> s) >= every a_i, and c_i = C_i / 2^s, |a_i - c_i| <= e, where e
    = 0 if A < 2^53 (no shift, exact conversion), else 1 + 2uA (the shift, and
    a rounding of u*A/(1 - u)).  As |c_i| <= A + e, an exact product of the a
    is off by at most Ae + (A + e)e, its rounding adds uA^2, and rounding the
    difference of two products in [0, A^2(1 + u)] adds uA^2(1 + u).  So each
    computed minor m is within B = 4Ae + 2e^2 + 5uA^2 of the exact D / 2^(2s),
    with about 2uA^2 to spare for rounding B and F - 2B, F the largest |m|.  An
    exact maximum D* then has |m| >= D* / 2^(2s) - B >= F - 2B: only minors with
    |m| >= F - 2B are computed exactly, in loop order, so the first maximum wins.
    """
    import numpy as np

    cells, total, div, _, _ = t._form
    n = t.n_rows
    # The index pairs i < i' in loop order, as the nonzero entries of a triangle.
    (j, j2), (k, k2) = ((np.arange(s)[:, None] < np.arange(s)).nonzero() for s in (n, t.n_cols))
    if not (j.size and k.size):
        return None
    bound = 0
    if not t.is_exact:
        a = np.array(cells, dtype=np.float64)
    elif 2 * (big := max(map(max, cells))) ** 2 < 2**63:
        a = np.array(cells, dtype=np.int64)
    else:
        shift = max(0, big.bit_length() - 510)
        a = np.array([[c >> shift for c in row] for row in cells] if shift else cells,
                     dtype=np.float64)
        top = float(big >> shift)
        e = 1 + 2**-52 * top if top >= 2**53 else 0
        bound = 4 * top * e + 2 * e * e + 5 * 2**-53 * top * top
    # Blocks of row pairs, each with the index in loop order of its first pair.
    if j.size * k.size <= _ONE_ARRAY:
        width, row_blocks = k.size, [(0, (j, j2))]
    else:
        width = max(1, _MINOR_BLOCK // (n - 1))
        row_blocks = [(r * (2 * n - r - 1) // 2, (slice(r, r + 1), slice(r + 1, n)))
                      for r in range(n - 1)]

    def columns(q):  # every row's cells in column pairs q, q + 1, ..., q + width - 1
        return a[:, k[q:q + width]], a[:, k2[q:q + width]]

    def magnitudes(x, y, rows):  # |minor| of the row pairs `rows`, in loop order
        m = x[rows[0]] * y[rows[1]]
        m -= y[rows[0]] * x[rows[1]]
        return np.abs(m, out=m)

    tops, peak = [], -1  # the largest |m| of each block, in the order they are taken
    for q in range(0, k.size, width):
        x, y = columns(q)
        for _, rows in row_blocks:
            tops.append((m := magnitudes(x, y, rows)).max())
            if tops[-1] > peak:  # the first block of largest |m|, kept for the second pass
                peak, kept = tops[-1], (len(tops) - 1, m)
    if not peak and not bound:
        return None
    # Each candidate's index in loop order: row pair * k.size + column pair.
    floor, found = peak - 2 * bound, []
    for b, top in enumerate(tops):
        if top >= floor:
            q, (p0, rows) = b // len(row_blocks) * width, row_blocks[b % len(row_blocks)]
            m = kept[1] if b == kept[0] else magnitudes(*columns(q), rows)
            i = np.flatnonzero(m >= floor) if bound else m.argmax()
            found.append((p0 + i // m.shape[1]) * k.size + q + i % m.shape[1])
    # Every candidate in loop order; without a filter, the first of the equal maxima.
    p, q = np.divmod(np.sort(np.concatenate(found)) if bound else [min(found)], k.size)
    r, r2, c, c2 = (x.tolist() for x in (j[p], j2[p], k[q], k2[q]))
    # Exact tables' minors in Python ints; a float table's as the search took them.
    v = cells if t.is_exact else a.tolist()
    values = [v[j][k] * v[j2][k2] - v[j][k2] * v[j2][k] for j, j2, k, k2 in zip(r, r2, c, c2)]
    sizes = list(map(abs, values))
    i = sizes.index(max(sizes))  # the first of the largest, in loop order
    if not values[i]:
        return None
    j, j2, c, c2, value = r[i], r2[i], c[i], c2[i], values[i]
    return MinorWitness(
        rows=(j, j2),
        cols=(c, c2),
        row_labels=(t.row_outcomes.labels[j], t.row_outcomes.labels[j2]),
        col_labels=(t.col_outcomes.labels[c], t.col_outcomes.labels[c2]),
        value=div(value, total * total),
    )


def default_tolerance(t: JointTable) -> Value:
    """Zero for exact rational tables, FLOAT_TOLERANCE otherwise."""
    return Fraction(0) if t.is_exact else FLOAT_TOLERANCE


def check_tolerance(tol: Value) -> None:
    """Refuse a product-test tolerance that is not finite, then one that is negative."""
    if not math.isfinite(as_float(tol, ValueError, "tolerance")):
        raise ValueError(f"tolerance must be finite, got {tol!r}")
    if tol < 0:
        raise ValueError(f"tolerance must be nonnegative, got {shown(tol)}")


def is_product(t: JointTable, tol: Value | None = None) -> EntanglementReport:
    """Decide whether the table is an outer product of its marginals.

    The residual is max |probs[j][k] - row[j] * col[k]|.  Entangled verdicts
    carry the strongest 2x2 minor as an independently checkable witness.  With
    every minor zero the table has rank one and equals its marginal outer
    product, so it is a product even when float rounding leaves a residual above
    `tol`; exact tables never do.
    """
    if tol is None:
        tol = default_tolerance(t)
    check_tolerance(tol)
    marg = marginals(t)
    residual = t._residual
    arithmetic: Literal["exact", "float"] = "exact" if t.is_exact else "float"
    witness = None if residual <= tol else _max_minor(t)
    verdict: Literal["product", "entangled"] = "product" if witness is None else "entangled"
    return EntanglementReport(verdict, marg, residual, witness, tol, arithmetic)


def factorization_certificate(
    t: JointTable,
) -> Optional[tuple[ProbabilityVector, ProbabilityVector]]:
    """The factor pair (row marginals, col marginals) when the table is a product.

    The test is the one `is_product` applies with its default tolerance: the
    outer-product residual must be at most `default_tolerance(t)`, so exact
    tables are certified exactly (a zero residual makes the table the outer
    product of its marginals) and float tables within FLOAT_TOLERANCE.  No
    witness is searched for.  A zero row or column never blocks the
    certificate; its marginal entry is simply zero.
    """
    marg = marginals(t)
    if t._residual <= default_tolerance(t):
        return marg.row, marg.col
    return None


# ---------------------------------------------------------------------------
# Joint-table ingestion: CSV with header `row_label,col_label,count`, or JSON
# {rows: [...], cols: [...], counts: [[...]]}.
# ---------------------------------------------------------------------------


def parse_joint_csv(text: str) -> JointTable:
    rows: list[str] = []
    cols: list[str] = []
    cells: dict[tuple[str, str], int] = {}
    for r, c, count in count_rows(text, ("row_label", "col_label", "count"), "joint counts"):
        if (r, c) in cells:
            raise InvalidJointTable(f"duplicate cell ({r!r}, {c!r}) in joint counts")
        cells[(r, c)] = count
        if r not in rows:
            rows.append(r)
        if c not in cols:
            cols.append(c)
    missing = [(r, c) for r in rows for c in cols if (r, c) not in cells]
    if missing:
        raise InvalidJointTable(f"joint counts are not rectangular; missing cells {missing!r}")
    counts = [[cells[(r, c)] for c in cols] for r in rows]
    return JointTable.from_counts(OutcomeSet(tuple(rows)), OutcomeSet(tuple(cols)), counts)


def parse_joint_json(text: str) -> JointTable:
    data = load_json(text, object_pairs_hook=_reject_duplicate_keys)
    if not isinstance(data, dict) or not {"rows", "cols", "counts"} <= set(data):
        raise ParseError("JSON joint counts must be {rows: [...], cols: [...], counts: [[...]]}")
    rows, cols, counts = data["rows"], data["cols"], data["counts"]
    if not (isinstance(rows, list) and isinstance(cols, list) and isinstance(counts, list)):
        raise ParseError("rows, cols, and counts must be JSON arrays")
    if len(counts) != len(rows) or any(
        not isinstance(r, list) or len(r) != len(cols) for r in counts
    ):
        raise InvalidJointTable("counts matrix shape must be len(rows) x len(cols)")
    for row in counts:
        for c in row:
            if not is_integer(c):
                raise ParseError(f"joint count {c!r} is not an integer")
    return JointTable.from_counts(OutcomeSet(tuple(rows)), OutcomeSet(tuple(cols)), counts)
