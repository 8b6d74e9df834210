"""Real-simplex representation and hidden-variable measurement dynamics.

Conventions
-----------
A measurement context with outcome probabilities (p_1, ..., p_n) is
represented by the point v = sum_j p_j h_j of the standard simplex in R^n,
where h_j is the canonical basis.  Outcome j owns the region A_j: the convex
closure of the basis vertices with h_j replaced by v.  A hidden variable
lambda in the simplex selects outcome j deterministically when it is interior
to A_j; points on a shared face leave the outcome undetermined.

Membership test
---------------
Writing lambda = t*v + sum_{k != j} c_k h_k gives t = lambda_j / v_j and
c_k = lambda_k - t*v_k, so lambda lies in A_j iff j minimizes the ratio
lambda_k / v_k (interior iff strict minimizer).  This O(n) rule replaces the
n x n linear solve; the test suite checks it against that solve directly.

For v_k = 0 the region A_k is degenerate (measure zero): the ratio is +inf
when lambda_k > 0, and when lambda_k = 0 the index only joins a boundary tie,
so a forbidden outcome is never emitted.

One kernel, `_classify_batch`, applies the rule to one point
(`classify_hidden_variable`) and to every Monte Carlo batch.  The README
describes how Monte Carlo draws, lays out and classifies its batches.
"""

from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence, Union

from .errors import InvalidHiddenVariable
from .probability import (
    ContextId,
    ProbabilityVector,
    Value,
    check_simplex,
    is_integer,
    shown,
)

# numpy is imported in each function that computes with it, not here: loading
# it takes about 100 ms that every `import contextrep` and numpy-free report
# would pay.

#: Default width for declaring two region ratios tied (a boundary hit).
BOUNDARY_TOLERANCE = 1e-12

#: Rows per Monte Carlo batch: 64 KB per outcome, so 128 KB at n = 2 and 2 MB
#: at n = 32.  Rows are drawn in stream order, one batch at a time.
_MC_BATCH = 1 << 13

#: Widest rows the kernel classifies outcome-major.  Below it numpy's per-row
#: reductions cost more than a transposed copy of the batch; above it the copy
#: costs more (at n = 32 it made the kernel 1.2-1.6x slower).
_OUTCOME_MAJOR_MAX = 16


@dataclass(frozen=True)
class RealContextVector(ProbabilityVector):
    """Simplex point representing one (measurement, state) pair.

    Coordinates are the outcome probabilities themselves; exact entries are
    preserved so joint constructions downstream can stay rational.
    """

    context: ContextId

    @property
    def n(self) -> int:
        return self.outcomes.n


@dataclass(frozen=True)
class HiddenVariable:
    """A point of the outcome simplex driving one measurement realization."""

    coords: tuple[float, ...]

    def __post_init__(self) -> None:
        coords = []
        for i, x in enumerate(self.coords):
            try:
                coords.append(float(x))
            except OverflowError:  # an int or Fraction beyond float range, not inf
                raise InvalidHiddenVariable(f"coordinates[{i}] is too large for a float") from None
        object.__setattr__(self, "coords", tuple(coords))
        if not self.coords:
            raise InvalidHiddenVariable("hidden variable needs at least one coordinate")
        check_simplex(self.coords, InvalidHiddenVariable, "coordinates")

    def __len__(self) -> int:
        return len(self.coords)


@dataclass(frozen=True)
class Deterministic:
    """The hidden variable is interior to one region: the outcome is certain."""

    outcome: int


@dataclass(frozen=True)
class Boundary:
    """The hidden variable sits on a face shared by two or more regions."""

    tied: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tied", tuple(sorted(self.tied)))
        if len(self.tied) < 2:
            raise InvalidHiddenVariable("a boundary resolution needs at least two tied outcomes")


OutcomeResolution = Union[Deterministic, Boundary]


def build_real_context(p: ProbabilityVector, ctx: ContextId) -> RealContextVector:
    """Represent (measurement, state) by its probability point of the simplex."""
    return RealContextVector(p.outcomes, p.probs, ctx)


def classify_hidden_variable(
    v: RealContextVector,
    lam: HiddenVariable | Sequence[float],
    tol: float = BOUNDARY_TOLERANCE,
) -> OutcomeResolution:
    """Resolve which outcome region contains the hidden variable.

    Returns ``Deterministic(j)`` when j is the strict minimizer of
    lambda_k / v_k, and ``Boundary(tied)`` when the minimum is attained (within
    ``tol``) by several indices.  Indices with v_k = 0 and lambda_k = 0 join
    the tie (their degenerate region contains the point); with lambda_k > 0
    they are excluded.
    """
    if not tol >= 0:
        raise ValueError("tol must be nonnegative")
    if not isinstance(lam, HiddenVariable):
        lam = HiddenVariable(tuple(lam))
    if len(lam) != v.n:
        raise InvalidHiddenVariable(
            f"hidden variable has {len(lam)} coordinates, context has {v.n} outcomes"
        )
    import numpy as np

    counts, ties = _classify_batch(np.array([lam.coords]), _reciprocals(v), tol)
    if len(ties):
        return Boundary(tuple(np.flatnonzero(ties[0]).tolist()))
    return Deterministic(int(counts.argmax()))


def region_measure_ratio(v: RealContextVector, j: int) -> Value:
    """Lebesgue-measure fraction of outcome j's region: exactly v[j].

    Replacing vertex h_j by v scales the simplex volume by the j-th
    barycentric coordinate of v, so no integration is needed.
    """
    if not 0 <= j < v.n:
        raise IndexError(f"outcome index {shown(j)} out of range for {v.n} outcomes")
    return v.probs[j]


def sample_hidden_variables(n: int, count: int, seed: int) -> np.ndarray:
    """Uniform (Lebesgue) samples on the standard simplex, one per row.

    Uses the exponential-spacings construction: normalize i.i.d. Exp(1)
    draws.  Reproducible for a fixed seed.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if count < 1:
        raise ValueError("count must be at least 1")
    import numpy as np

    g = np.random.default_rng(seed).exponential(scale=1.0, size=(count, n))
    return g / g.sum(axis=1, keepdims=True)


def trial_chunks(trials: int, chunk: int) -> Iterator[int]:
    """Batch sizes summing to `trials`, `chunk` at most: every simulation draws in these."""
    for start in range(0, trials, chunk):
        yield min(chunk, trials - start)


def _mc_workers() -> int:
    """Threads on a Monte Carlo job: the CPUs this process may run on, at most 4.

    They are the calling thread, which draws every batch, and up to 3 that
    classify them.  Drawing a row takes 11 ns at n = 2 and 88 at n = 16,
    classifying it 14 and 54 (2 vCPUs), so one stream feeds one or two
    classifiers.  The pool starts a thread only when none is idle, so one the
    stream cannot feed is seldom started.  The cap was measured on 2 CPUs only.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, 4)


def _exponential_batches(
    rng: np.random.Generator, trials: int, n: int, work: Callable[[np.ndarray], Any]
) -> list:
    """`work` of each batch of `trials` rows of n Exp(1) draws, in batch order.

    The calling thread draws every batch, of the sizes `trial_chunks` gives,
    so batch i is segment i of the stream.  With w = min(`_mc_workers()`,
    batches) above 1, `work` runs on a pool of w - 1 threads (numpy releases
    the GIL in both), and the caller takes the oldest result before drawing
    once w are pending, so at most w batches are alive.  `work` may overwrite
    its batch.  An exception from `work` is raised here, with no further
    batch drawn and the pool's threads ended.
    """
    sizes = trial_chunks(trials, _MC_BATCH)
    workers = min(_mc_workers(), math.ceil(trials / _MC_BATCH))
    if workers == 1:
        return [work(rng.standard_exponential((size, n))) for size in sizes]
    # Imported here, not at the top: concurrent.futures imports logging, about
    # 6 ms that every `import contextrep` would pay for a path it may not take.
    from concurrent.futures import ThreadPoolExecutor

    results: list = []
    pending: deque = deque()
    with ThreadPoolExecutor(workers - 1) as pool:
        for size in sizes:
            if len(pending) == workers:
                results.append(pending.popleft().result())
            pending.append(pool.submit(work, rng.standard_exponential((size, n))))
        results.extend(future.result() for future in pending)
    return results


def _reciprocals(v: RealContextVector) -> np.ndarray:
    """1 / v_k per outcome: +inf where v_k = 0, finite (at most the largest float) elsewhere."""
    import numpy as np

    values = np.array(v.as_floats())
    with np.errstate(divide="ignore", over="ignore"):
        inv = np.minimum(1.0 / values, np.finfo(float).max)
    return np.where(values > 0.0, inv, np.inf)


def _classify_batch(
    g: np.ndarray, inv_v: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """The ratio rule per row of `g`: (winner count per outcome, boundary tie masks).

    Rows need not be normalized, and `g` may be overwritten with the ratios
    g_k * inv_v_k (`inv_v` is `_reciprocals` of the context).  An index ties
    the row minimum when its ratio is within `tol` times the row sum.  A row
    whose tie mask holds one index counts for it.  Every other row, and each
    row with a 0/0 entry (NaN: an exact 0.0 draw at a zero-probability
    outcome, which only ever ties), is a boundary: the exact path gives its
    tie mask, in row order.
    """
    import numpy as np

    rows, n = g.shape
    scaled_tol = tol * np.einsum("ij->i", g)  # a row sums alike alone and in any batch
    winners = None
    with np.errstate(invalid="ignore"):
        if n <= _OUTCOME_MAJOR_MAX:
            # r is a (rows, n) view of outcome-major ratios, so the row minimum,
            # the mask and the tally below are contiguous passes over the batch.
            r = np.multiply(g.T, inv_v[:, None], out=np.empty((n, rows))).T
            bound = np.minimum.reduce(r, axis=1) + scaled_tol  # NaN in a row with a NaN
        else:
            r = np.multiply(g, inv_v, out=g)
            winners = r.argmin(axis=1)  # a row's first NaN, if it has one
            bound = r.ravel().take(np.arange(0, r.size, n) + winners) + scaled_tol
    mask = r <= bound[:, None]
    nan_rows = np.isnan(bound)
    if np.count_nonzero(mask) == rows and not nan_rows.any():
        rare, settled = None, slice(None)
    else:
        rare = np.flatnonzero((np.count_nonzero(mask, axis=1) != 1) | nan_rows)
        settled = np.delete(np.arange(rows), rare)
    # A settled row's mask holds one index, its minimizer: its winner.
    counts = (np.count_nonzero(mask[settled], axis=0) if winners is None
              else np.bincount(winners[settled], minlength=n))
    if rare is None:
        return counts, np.empty((0, n), dtype=bool)
    ratios = r[rare]
    zero_zero = np.isnan(ratios)
    ratios[zero_zero] = np.inf
    ties = (ratios <= ratios.min(axis=1, keepdims=True) + scaled_tol[rare, None]) | zero_zero
    return counts, ties


@dataclass(frozen=True)
class MonteCarloMeasurement:
    """Empirical outcome statistics from repeated hidden-variable draws."""

    target: RealContextVector
    trials: int
    seed: int
    counts: tuple[int, ...]
    boundary_hits: int

    @property
    def frequencies(self) -> ProbabilityVector:
        det = self.trials - self.boundary_hits
        return ProbabilityVector(
            self.target.outcomes, tuple(c / det for c in self.counts)
        )

    @property
    def max_abs_deviation(self) -> float:
        freqs = self.frequencies.as_floats()
        return max(abs(f - t) for f, t in zip(freqs, self.target.as_floats()))

    def three_sigma_bounds(self) -> dict[str, float]:
        """Three binomial standard deviations of each outcome's frequency, by label."""
        return {
            label: 3.0 * math.sqrt(q * (1.0 - q) / self.trials)
            for label, q in zip(self.target.outcomes.labels, self.target.as_floats())
        }

    @property
    def within_three_sigma(self) -> bool:
        """Whether every frequency lies within `three_sigma_bounds` of its target."""
        bounds = self.three_sigma_bounds()
        return all(
            abs(f - q) <= bounds[label]
            for label, f, q in zip(self.target.outcomes.labels,
                                   self.frequencies.as_floats(), self.target.as_floats())
        )

    def to_json_dict(self) -> dict:
        labels = self.target.outcomes.labels
        freqs = self.frequencies.as_floats()
        return {
            "context": self.target.context.as_dict(),
            "trials": self.trials,
            "seed": self.seed,
            "frequencies": dict(zip(labels, freqs)),
            "boundary_hits": self.boundary_hits,
            "target": dict(zip(labels, self.target.as_floats())),
            "max_abs_deviation": self.max_abs_deviation,
        }


def monte_carlo_measurement(
    v: RealContextVector,
    trials: int,
    seed: int,
) -> MonteCarloMeasurement:
    """Simulate the measurement by classifying uniform hidden variables.

    Frequencies are taken over deterministic resolutions only; boundary hits
    (a measure-zero event, so expected count 0) are reported separately.
    """
    if not is_integer(trials) or trials < 1:
        raise ValueError(f"trials must be a positive integer, got {shown(trials)}")
    import numpy as np  # here, so that no pool thread of `_exponential_batches` loads it

    inv_v = _reciprocals(v)
    batches = _exponential_batches(
        np.random.default_rng(seed), trials, v.n,
        lambda g: _classify_batch(g, inv_v, BOUNDARY_TOLERANCE),
    )
    counts = sum(batch_counts for batch_counts, _ in batches)
    boundary_hits = sum(len(ties) for _, ties in batches)
    if boundary_hits == trials:
        raise InvalidHiddenVariable("every trial hit a region boundary; no frequencies")
    return MonteCarloMeasurement(
        target=v,
        trials=trials,
        seed=seed,
        counts=tuple(int(c) for c in counts),
        boundary_hits=boundary_hits,
    )
