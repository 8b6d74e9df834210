"""Tensor-product joint representations and the product/entangled decision.

A joint measurement over outcome pairs (row j, column k) is carried as an
n x n' probability matrix.  The joint real vector lists the entries in
row-major order over the tensor basis (basis index j*n' + k); the joint
complex vector carries sqrt(p_jk) moduli with free phases.

Decision procedure
------------------
If the matrix factors as an outer product of *any* probability pair, it
factors through its own marginals (sum the factorization over rows/columns),
so the test checks probs == outer(row marginals, col marginals).  Tables that
fail get a witness: the 2x2 minor of maximal absolute value, the first one in
(j, j', k, k') loop order when several tie, a rank-1 obstruction checkable by
hand.  Tables built from integer counts are decided exactly with zero
tolerance; float tables get a small default tolerance.

Every table is decided through one form (C, T, div, R, K), built once, with
probs == C / T: the counts over their total; for a rational table without
counts, the probabilities times the lcm T of their denominators; for a float
table, its own entries over T = 1, with div(x, 1) == x (but a sum rounded
above 1 is 1.0), so every float bit and entry type is kept.  R and K are the
row and column sums of C; the marginals are div(R_j, T) and div(K_k, T), the
residual is div(max |T*C_jk - R_j*K_k|, T^2), and each 2x2 minor of probs is
div of the same minor of C by T^2.  So exact tables are decided in integers,
fraction-free (Bareiss 1968), with `Fraction` built only for these reported
values.  The witness kernel takes one row's minors against all later rows at
once, and alone picks a dtype: float64 for a float table (the products and
differences of a scalar loop, so bit-identical witnesses), int64 when
2*max(C)^2 < 2^63 (no product or difference can overflow), and object-dtype
Python ints otherwise.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Literal, Optional, Sequence

import numpy as np

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
    _reject_duplicate_keys,
    check_simplex,
    count_matrix,
    count_rows,
    is_exact_value,
    is_integer,
    load_json,
)
from .simplex import RealContextVector

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

    def as_floats(self) -> tuple[tuple[float, ...], ...]:
        return tuple(tuple(float(p) for p in row) for row in self.probs)

    def combined_labels(self) -> tuple[str, ...]:
        """Row-major labels of the tensor basis, concatenated when unambiguous."""
        joined = tuple(
            r + c for r in self.row_outcomes.labels for c in self.col_outcomes.labels
        )
        if len(set(joined)) == len(joined):
            return joined
        return tuple(
            f"{r}|{c}" for r in self.row_outcomes.labels for c in self.col_outcomes.labels
        )

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
    """Amplitudes over the tensor basis, row-major; squared moduli are the table."""

    row_outcomes: OutcomeSet
    col_outcomes: OutcomeSet
    amplitudes: tuple[complex, ...]
    phases: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "amplitudes", tuple(complex(a) for a in self.amplitudes))
        object.__setattr__(self, "phases", PhaseAssignment(self.phases).angles)
        size = self.row_outcomes.n * self.col_outcomes.n
        if len(self.amplitudes) != size or len(self.phases) != size:
            raise InvalidJointTable(
                f"expected {size} amplitudes and phases over the tensor basis"
            )
        self._check_unit_norm(InvalidJointTable)

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
    amplitudes = []
    phases = []
    for a in w1.amplitudes:
        for b in w2.amplitudes:
            prod = a * b
            amplitudes.append(prod)
            phases.append(cmath.phase(prod) if prod != 0 else 0.0)
    return JointComplexVector(w1.outcomes, w2.outcomes, tuple(amplitudes), tuple(phases))


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
    amplitudes = tuple(
        math.sqrt(float(p)) * cmath.exp(1j * angle)
        for p, angle in zip(real, phases.angles)
    )
    return real, JointComplexVector(t.row_outcomes, t.col_outcomes, amplitudes, phases.angles)


def marginals(t: JointTable) -> Marginals:
    """Row and column sums; the only candidate factor pair for the product test."""
    _, total, div, row_sums, col_sums = t._form
    return Marginals(
        ProbabilityVector(t.row_outcomes, tuple(div(s, total) for s in row_sums)),
        ProbabilityVector(t.col_outcomes, tuple(div(s, total) for s in col_sums)),
    )


def _max_minor(t: JointTable) -> Optional[MinorWitness]:
    """The first 2x2 minor of maximal absolute value in (j, j', k, k') loop order.

    None when every minor is zero.  Row j's minors against all later rows are
    one array over the column pairs k < k', so memory is O(n * m^2), never a
    whole n^2 x m^2 array.
    """
    cells, total, div, _, _ = t._form
    dtype = np.float64
    if t.is_exact:
        big = max(map(max, cells))
        dtype = np.int64 if 2 * big * big < 2**63 else object
    a = np.array(cells, dtype=dtype)
    # The column pairs k < k' in loop order (`np.triu_indices(m, 1)` lists the
    # same pairs, but its first call alone adds about 0.2 MB of resident memory).
    k, k2 = np.array(list(itertools.combinations(range(t.n_cols), 2)),
                     dtype=np.intp).reshape(-1, 2).T
    best_abs, best = 0, None
    for j in range(t.n_rows - 1 if t.n_cols > 1 else 0):
        # Indexing by k and k2 copies, so the products and the difference are
        # taken in place, and both arrays are freed before the next row's: at
        # most two arrays of (n - j - 1) x C(m, 2) minors are alive at a time.
        minors, mags = a[j + 1:, k2], a[j + 1:, k]
        minors *= a[j, k]
        mags *= a[j, k2]
        minors -= mags
        np.abs(minors, out=mags)
        i = int(mags.argmax())  # the first maximum in (j', column pair) order
        if mags.flat[i] > best_abs:
            best_abs = mags.flat[i]
            later_row, pair = divmod(i, k.size)
            best = (j, j + 1 + later_row, int(k[pair]), int(k2[pair]), minors.item(i))
        del minors, mags
    if best is None:
        return None
    j, j2, c, c2, value = best
    return MinorWitness(
        rows=(j, j2),
        cols=(c, c2),
        row_labels=(t.row_outcomes.labels[j], t.row_outcomes.labels[j2]),
        col_labels=(t.col_outcomes.labels[c], t.col_outcomes.labels[c2]),
        value=div(value, total * total),
    )


def _residual(t: JointTable) -> Value:
    """max |probs[j][k] - row[j] * col[k]|, the distance from the marginal outer product."""
    cells, total, div, row_sums, col_sums = t._form
    return div(
        max(abs(total * c - r * k)
            for row, r in zip(cells, row_sums) for c, k in zip(row, col_sums)),
        total * total,
    )


def default_tolerance(t: JointTable) -> Value:
    """Zero for exact rational tables, FLOAT_TOLERANCE otherwise."""
    return Fraction(0) if t.is_exact else FLOAT_TOLERANCE


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
    if not math.isfinite(tol):
        raise ValueError(f"tolerance must be finite, got {tol!r}")
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    marg = marginals(t)
    residual = _residual(t)
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
    tables are certified exactly (every 2x2 minor vanishes, by the module
    docstring) and float tables within FLOAT_TOLERANCE.  No witness is
    searched for.  A zero row or column never blocks the certificate; its
    marginal entry is simply zero.
    """
    marg = marginals(t)
    if _residual(t) <= default_tolerance(t):
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
