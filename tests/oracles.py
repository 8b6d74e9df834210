"""Independent oracles the tests check the library against.

Each oracle reaches the same answer as the library through a different
algorithm: region membership by solving linear systems instead of ratio
comparisons, region measure by rejection counting instead of a closed form,
factorization by exhaustive rational search instead of minors, the strongest
2x2 minor, the marginals and the residual by scalar formulas over the
table's own entries instead of its (C, T, div) form and vectorized kernel,
the ratio rule by an n-wide tie matrix instead of the scale-free kernel with
its rare-row path, the joint amplitudes from each entry's own float instead
of the table's (C, T) form, and a report's text by json's own `indent=2`
encoder instead of the CLI's one-pass writer.  Expected values asserted in
the tests were computed from these oracles once and frozen.
"""

from __future__ import annotations

import cmath
import json
import math
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np


def region_coefficients(
    values: Sequence[float], lam: Sequence[float], j: int
) -> Optional[np.ndarray]:
    """Barycentric coefficients of lam in outcome j's region.

    Region j is the convex hull of the simplex vertices with vertex j replaced
    by the context point v.  Writing lam as a linear combination of those n
    vertices is the n x n system (I with column j := v) c = lam; because every
    column sums to 1 and lam sums to 1, the solution automatically sums to 1,
    so lam lies in the region iff every coefficient is nonnegative.  Returns
    None when the region is degenerate (v_j = 0 makes the system singular).
    """
    n = len(values)
    m = np.eye(n)
    m[:, j] = np.asarray(values, dtype=float)
    try:
        return np.linalg.solve(m, np.asarray(lam, dtype=float))
    except np.linalg.LinAlgError:
        return None


def region_depths(values: Sequence[float], lam: Sequence[float]) -> list[float]:
    """Minimum barycentric coefficient of lam per region (-inf if degenerate).

    lam belongs to region j iff depth[j] >= 0; for points off every boundary
    exactly one depth is positive, so argmax identifies the region.
    """
    depths = []
    for j in range(len(values)):
        c = region_coefficients(values, lam, j)
        depths.append(-np.inf if c is None else float(c.min()))
    return depths


def classify_batch_oracle(
    values: np.ndarray, lam: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """The ratio rule per row of `lam`, n-wide: (argmin index, tie mask).

    Divides each row by v and ties every index whose ratio lambda_k / v_k is
    within `tol` of the row minimum, plus each 0/0 entry (forbidden outcome,
    coordinate exactly zero), which only ever ties.  A row with more than one
    index masked is a boundary.  It builds the full tie matrix on every row;
    the library's kernel multiplies unnormalized rows by 1/v and builds it
    only for the rare rows its one-mask pass cannot settle.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(values > 0.0, lam / values, np.inf)
    best = ratios.min(axis=1, keepdims=True)
    ties = (ratios <= best + tol) | ((values == 0.0) & (lam == 0.0))
    return ratios.argmin(axis=1), ties


def hull_measure_estimate(
    values: Sequence[float], j: int, trials: int, seed: int
) -> float:
    """Monte Carlo estimate of region j's share of the simplex.

    Uses Dirichlet(1,...,1) sampling and the linear-system membership test,
    sharing no code with the library's sampler or classifier.
    """
    n = len(values)
    rng = np.random.default_rng(seed)
    lam = rng.dirichlet(np.ones(n), size=trials)
    m = np.eye(n)
    m[:, j] = np.asarray(values, dtype=float)
    try:
        coeffs = np.linalg.solve(m, lam.T)
    except np.linalg.LinAlgError:
        return 0.0
    return float(np.count_nonzero(coeffs.min(axis=0) >= 0.0)) / trials


def exact_factorization_search(
    counts: Sequence[Sequence[int]],
) -> Optional[tuple[Fraction, Fraction]]:
    """Exhaustive rational search for a 2x2 product decomposition.

    For a table of cell counts over total T, any real factorization
    p = (a, 1-a) x (b, 1-b) forces a = p11 + p12 and b = p11 + p21 (sum the
    defining equations), both multiples of 1/T, so scanning the (T+1)^2 grid
    of numerator pairs decides existence exactly.
    """
    (c00, c01), (c10, c11) = counts
    total = c00 + c01 + c10 + c11
    p = [[Fraction(c00, total), Fraction(c01, total)],
         [Fraction(c10, total), Fraction(c11, total)]]
    for i in range(total + 1):
        a = Fraction(i, total)
        for j in range(total + 1):
            b = Fraction(j, total)
            if (
                a * b == p[0][0]
                and a * (1 - b) == p[0][1]
                and (1 - a) * b == p[1][0]
                and (1 - a) * (1 - b) == p[1][1]
            ):
                return a, b
    return None


def max_minor_oracle(
    probs: Sequence[Sequence],
) -> Optional[tuple[tuple[int, int], tuple[int, int], object]]:
    """((j, j'), (k, k'), minor) of the first 2x2 minor of maximal absolute value.

    A quartic loop in (j, j', k, k') order over the entries themselves, so a
    Fraction table gets an exact minor and a float table the float one; a tie
    keeps the minor found first.  None when every minor is zero.
    """
    best = None
    best_abs = 0
    n, m = len(probs), len(probs[0])
    for j in range(n):
        for j2 in range(j + 1, n):
            for k in range(m):
                for k2 in range(k + 1, m):
                    value = probs[j][k] * probs[j2][k2] - probs[j][k2] * probs[j2][k]
                    if abs(value) > best_abs:
                        best_abs = abs(value)
                        best = ((j, j2), (k, k2), value)
    return best


def sums_oracle(probs: Sequence[Sequence]) -> tuple[list, list]:
    """(row sums, column sums) of the entries themselves, in index order."""
    rows = [sum(row) for row in probs]
    cols = [sum(probs[j][k] for j in range(len(probs))) for k in range(len(probs[0]))]
    return rows, cols


def marginals_oracle(probs: Sequence[Sequence]) -> tuple[list, list]:
    """The row and column sums as probabilities: a float sum above 1 is 1.0."""
    rows, cols = sums_oracle(probs)
    return [1.0 if s > 1 else s for s in rows], [1.0 if s > 1 else s for s in cols]


def residual_oracle(probs: Sequence[Sequence]) -> object:
    """max |p_jk - row_j * col_k| over the entries, in (j, k) order, with the raw sums."""
    rows, cols = sums_oracle(probs)
    return max(
        abs(probs[j][k] - rows[j] * cols[k])
        for j in range(len(probs))
        for k in range(len(probs[0]))
    )


def joint_vectors_oracle(probs: Sequence[Sequence], angles: Sequence[float]) -> list[complex]:
    """Row-major amplitudes sqrt(float(p)) * exp(i * angle), one per cell of the table."""
    entries = [p for row in probs for p in row]
    return [math.sqrt(float(p)) * cmath.exp(1j * angle)
            for p, angle in zip(entries, angles, strict=True)]


def report_text_oracle(report: object) -> str:
    """The text a CLI report must be, without its trailing newline: json's own
    `indent=2` encoder (ASCII escapes, keys in the report's order)."""
    return json.dumps(report, indent=2)


def binomial_three_sigma(p: float, trials: int) -> float:
    """3-sigma half-width for an empirical frequency of a probability-p event."""
    return 3.0 * float(np.sqrt(p * (1.0 - p) / trials))


# Marginal law of one coordinate under the uniform simplex distribution in
# dimension n is Beta(1, n-1); CDF F(x) = 1 - (1-x)^(n-1).  Frozen value for
# n = 4 at x = 1/4: 1 - (3/4)^3.
BETA_CDF_N4_AT_QUARTER = 0.578125


def vessels_oracle(
    mode: str, trials: int, seed: int, capacity: float, threshold: float
) -> tuple[int, int, int, int]:
    """(MM, ML, LM, LL) from `uniform(0, capacity)` draws and one mask per outcome.

    Draws follow the simulator's stream order: per 2^18-trial chunk, every
    left volume, then every right one in separate mode; a trial with a side
    exactly on the threshold draws both sides again, in trial order.
    """
    rng = np.random.default_rng(seed)

    def draw(size):
        left = rng.uniform(0.0, capacity, size)
        right = rng.uniform(0.0, capacity, size) if mode == "separate" else capacity - left
        return left, right

    tally = [0, 0, 0, 0]
    for start in range(0, trials, 1 << 18):
        left, right = draw(min(1 << 18, trials - start))
        hits = np.flatnonzero((left == threshold) | (right == threshold))
        while hits.size:
            left[hits], right[hits] = draw(hits.size)
            hits = hits[(left[hits] == threshold) | (right[hits] == threshold)]
        for i, (lm, rm) in enumerate([(True, True), (True, False), (False, True), (False, False)]):
            tally[i] += int(np.count_nonzero(((left > threshold) == lm) & ((right > threshold) == rm)))
    return tuple(tally)
