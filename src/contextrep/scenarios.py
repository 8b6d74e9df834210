"""Built-in scenarios: the animal-acts survey and the vessels-of-water simulator.

The README's "Built-in scenarios" section describes both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal, NamedTuple

from .errors import InvalidCounts
from .joint import JointTable
from .probability import (CountTable, OutcomeSet, ProbabilityVector, check_count, is_integer,
                          probabilities_from_counts, shown)
from .simplex import trial_chunks

# numpy is imported in the one function that computes with it, not here:
# loading it takes about 100 ms that every `import contextrep` and numpy-free
# report would pay.

ANIMAL_OUTCOMES = OutcomeSet(("Horse", "Bear"))
ACT_OUTCOMES = OutcomeSet(("Growls", "Whinnies"))
VESSEL_OUTCOMES = OutcomeSet(("M", "L"))


@dataclass(frozen=True)
class AnimalActsDataset:
    """Survey counts: two marginal measurements and one joint, same participant pool.

    joint_counts rows follow animal_counts order, columns follow act_counts order;
    `joint` is their exact table, built and checked once, here.
    """

    animal_counts: CountTable
    act_counts: CountTable
    joint_counts: tuple[tuple[int, ...], ...]
    joint: JointTable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        joint = JointTable.from_counts(self.animal_counts.outcomes, self.act_counts.outcomes,
                                       self.joint_counts)
        object.__setattr__(self, "joint_counts", joint.counts)
        object.__setattr__(self, "joint", joint)
        if not (self.animal_counts.total == self.act_counts.total == sum(map(sum, joint.counts))):
            raise InvalidCounts(
                "marginal and joint experiments must poll the same number of participants"
            )

    @property
    def participants(self) -> int:
        return self.animal_counts.total


def animal_acts_dataset() -> AnimalActsDataset:
    """The embedded survey: 81 participants, three measurements."""
    return AnimalActsDataset(
        animal_counts=CountTable(ANIMAL_OUTCOMES, (43, 38)),
        act_counts=CountTable(ACT_OUTCOMES, (39, 42)),
        joint_counts=((4, 51), (21, 5)),
    )


class AnimalActsTables(NamedTuple):
    animal: ProbabilityVector
    act: ProbabilityVector
    joint: JointTable


def animal_acts_tables(dataset: AnimalActsDataset | None = None) -> AnimalActsTables:
    """Exact probability tables from the survey counts.

    Displays round to the familiar two-decimal figures: animal (0.53, 0.47),
    act (0.48, 0.52), joint (0.05, 0.63, 0.26, 0.06) row-major.
    """
    if dataset is None:
        dataset = animal_acts_dataset()
    return AnimalActsTables(
        animal=probabilities_from_counts(dataset.animal_counts),
        act=probabilities_from_counts(dataset.act_counts),
        joint=dataset.joint,
    )


VesselsMode = Literal["separate", "connected"]


@dataclass(frozen=True)
class VesselsConfig:
    """Parameters for the two-vessel experiment.

    separate: each vessel holds an independent uniform volume on [0, capacity].
    connected: the vessels share `capacity` liters; the left side collects a
    uniform volume and the right side gets the remainder.
    """

    mode: VesselsMode
    trials: int
    seed: int
    capacity: float = 20.0
    threshold: float = 10.0

    def __post_init__(self) -> None:
        if self.mode not in ("separate", "connected"):
            raise ValueError(f"mode must be 'separate' or 'connected', got {self.mode!r}")
        if not is_integer(self.trials) or self.trials < 1:
            raise ValueError(f"trials must be a positive integer, got {shown(self.trials)}")
        if not is_integer(self.seed):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        for name in ("capacity", "threshold"):
            try:
                object.__setattr__(self, name, float(getattr(self, name)))
            except OverflowError:  # an int or Fraction beyond float range, not inf
                raise ValueError(f"{name} is too large for a float") from None
        if not (0.0 < self.threshold < self.capacity) or not math.isfinite(self.capacity):
            raise ValueError(
                f"need 0 < threshold < capacity, got threshold={self.threshold}, "
                f"capacity={self.capacity}"
            )


@dataclass(frozen=True)
class VesselsOutcomeCounts:
    """Tallies over the four joint outcomes; letters are (left, right) M-or-L."""

    mm: int
    ml: int
    lm: int
    ll: int

    def __post_init__(self) -> None:
        for name in ("mm", "ml", "lm", "ll"):
            check_count(getattr(self, name), InvalidCounts, f"{name} count")

    @property
    def total(self) -> int:
        return self.mm + self.ml + self.lm + self.ll

    def as_mapping(self) -> dict[str, int]:
        return {"MM": self.mm, "ML": self.ml, "LM": self.lm, "LL": self.ll}


def simulate_vessels(cfg: VesselsConfig) -> VesselsOutcomeCounts:
    """Run the experiment for cfg.trials draws and tally the four outcomes.

    A side reads M when its volume strictly exceeds the threshold.  Draws that
    land exactly on the threshold (probability zero) are redrawn so every
    trial resolves to M or L.  With threshold = capacity / 2 the connected
    mode never produces MM or LL: the remainder capacity - left is computed
    exactly for volumes in the upper half (Sterbenz), so the two sides land
    strictly on opposite sides of the threshold.
    """
    import numpy as np

    rng = np.random.default_rng(cfg.seed)
    t = cfg.threshold

    def draw(left: np.ndarray, right: np.ndarray) -> None:
        """Left then right volumes into the buffers, in the RNG's stream order.

        random() * capacity is uniform(0.0, capacity) bit for bit: that
        computes 0.0 + capacity * random() from the same stream.
        """
        rng.random(out=left)
        left *= cfg.capacity
        if cfg.mode == "separate":
            rng.random(out=right)
            right *= cfg.capacity
        else:
            np.subtract(cfg.capacity, left, out=right)

    rows = min(cfg.trials, 1 << 18)
    volumes, more = np.empty((2, rows)), np.empty((2, rows), dtype=bool)
    mm = ml = lm = ll = 0
    for size in trial_chunks(cfg.trials, rows):
        left, right = volumes[:, :size]
        left_more, right_more = more[:, :size]
        draw(left, right)
        hits = np.equal(left, t, out=left_more)
        hits |= np.equal(right, t, out=right_more)
        while hits.any():
            idx = np.flatnonzero(hits)
            redrawn = np.empty(idx.size), np.empty(idx.size)
            draw(*redrawn)
            left[idx], right[idx] = redrawn
            hits = np.zeros(size, dtype=bool)
            hits[idx] = (left[idx] == t) | (right[idx] == t)
        n_left = int(np.count_nonzero(np.greater(left, t, out=left_more)))
        n_right = int(np.count_nonzero(np.greater(right, t, out=right_more)))
        both = int(np.count_nonzero(np.logical_and(left_more, right_more, out=left_more)))
        mm += both
        ml += n_left - both
        lm += n_right - both
        ll += size - n_left - n_right + both
    return VesselsOutcomeCounts(mm, ml, lm, ll)


def vessels_joint_table(counts: VesselsOutcomeCounts) -> JointTable:
    """Exact 2x2 table, rows = left (M, L), columns = right (M, L)."""
    return JointTable.from_counts(
        VESSEL_OUTCOMES,
        VESSEL_OUTCOMES,
        ((counts.mm, counts.ml), (counts.lm, counts.ll)),
    )
