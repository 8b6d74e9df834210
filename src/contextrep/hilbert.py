"""Complex Hilbert-space representation with diagonal spectral families.

A context with n outcomes is modeled in an ambient space of dimension m,
n <= m <= n^2.  Each outcome k owns a block of ambient indices; the projector
for outcome k is diagonal with ones exactly on that block, so projectors are
represented by index blocks and never materialized as matrices.  Outcome
probability is recovered by the Born rule: the squared amplitude weight of
the block.

Amplitudes are chosen as sqrt(p_k / b_k) * exp(i * alpha_j) for every ambient
index j of block k, where b_k is the block size; this is the normalization
forced by the Born rule (each block then carries weight p_k).  Phases are
free inputs and never affect probabilities.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import FamilyMismatch, InvalidFamily, InvalidPhases
from .probability import ContextId, OutcomeSet, ProbabilityVector, is_integer, shown

#: Allowed deviation from exact unit norm / exact block weight.
NORM_TOLERANCE = 1e-12

TWO_PI = 2.0 * math.pi


def round_sig(x: float) -> float:
    """Round to 12 significant digits, the precision amplitudes are reported at."""
    return float(f"{x:.12g}")


class AmplitudeVector:
    """The one owner of an amplitude vector's unit-norm rule, moduli and report form."""

    amplitudes: tuple[complex, ...]

    def _check_unit_norm(self, error: type[Exception]) -> None:
        norm = sum(abs(a) ** 2 for a in self.amplitudes)
        if abs(norm - 1.0) > NORM_TOLERANCE:
            raise error(f"amplitudes have squared norm {norm!r}, not 1")

    def moduli(self) -> tuple[float, ...]:
        return tuple(abs(a) for a in self.amplitudes)

    def amplitude_entries(self) -> list[dict]:
        """Report form: real and imaginary parts at 12 significant digits."""
        return [{"re": round_sig(a.real), "im": round_sig(a.imag)} for a in self.amplitudes]


@dataclass(frozen=True)
class BlockSpectralFamily:
    """Ordered partition of the ambient indices {0, ..., m-1} into outcome blocks."""

    m: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", tuple(tuple(b) for b in self.blocks))
        n = len(self.blocks)
        if n < 1:
            raise InvalidFamily("at least one block is required")
        if not (n <= self.m <= n * n):
            raise InvalidFamily(f"ambient dimension {shown(self.m)} outside [{n}, {n * n}]")
        seen: set[int] = set()
        for k, block in enumerate(self.blocks):
            if not 1 <= len(block) <= n:
                raise InvalidFamily(f"block {k} has size {len(block)}, allowed 1..{n}")
            for j in block:
                if not (is_integer(j) and 0 <= j < self.m):
                    raise InvalidFamily(f"block {k} holds invalid ambient index {shown(j)}")
                if j in seen:
                    raise InvalidFamily(f"ambient index {j} appears in two blocks")
                seen.add(j)
        if len(seen) != self.m:
            raise InvalidFamily("blocks must cover every ambient index")

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def is_rank_one(self) -> bool:
        return all(len(b) == 1 for b in self.blocks)

    @classmethod
    def rank_one(cls, n: int) -> "BlockSpectralFamily":
        """The ordinary case: m = n, one ambient index per outcome."""
        return cls(n, tuple((j,) for j in range(n)))


@dataclass(frozen=True)
class PhaseAssignment:
    """One angle (radians) per ambient index, stored modulo 2*pi."""

    angles: tuple[float, ...]

    def __post_init__(self) -> None:
        normalized = []
        for j, a in enumerate(self.angles):
            try:
                a = float(a)
            except OverflowError:  # an int or Fraction beyond float range, not inf
                raise InvalidPhases(f"phase at index {j} is too large for a float") from None
            if not math.isfinite(a):
                raise InvalidPhases(f"phase {a!r} is not finite")
            a %= TWO_PI
            normalized.append(0.0 if a == TWO_PI else a)  # a tiny negative a rounds up to 2*pi
        object.__setattr__(self, "angles", tuple(normalized))

    def __len__(self) -> int:
        return len(self.angles)

    @classmethod
    def zeros(cls, m: int) -> "PhaseAssignment":
        return cls((0.0,) * m)

    @classmethod
    def from_mapping(cls, angles: Mapping[str, float], labels: Sequence[str]) -> "PhaseAssignment":
        """Angles by label, missing labels default to 0; unknown labels are rejected."""
        unknown = set(angles) - set(labels)
        if unknown:
            raise InvalidPhases(f"phase labels {sorted(unknown)!r} not among outcomes {list(labels)!r}")
        for label, a in angles.items():
            if isinstance(a, bool) or not isinstance(a, (int, float)):
                raise InvalidPhases(f"phase for {label!r} must be a number, got {a!r}")
        return cls(tuple(angles.get(l, 0.0) for l in labels))


@dataclass(frozen=True)
class ComplexContextVector(AmplitudeVector):
    """Unit vector whose block weights are the outcome probabilities."""

    outcomes: OutcomeSet
    amplitudes: tuple[complex, ...]
    family: BlockSpectralFamily
    context: ContextId

    def __post_init__(self) -> None:
        object.__setattr__(self, "amplitudes", tuple(complex(a) for a in self.amplitudes))
        if len(self.amplitudes) != self.family.m:
            raise FamilyMismatch(
                f"{len(self.amplitudes)} amplitudes for ambient dimension {self.family.m}"
            )
        if self.family.n_blocks != self.outcomes.n:
            raise FamilyMismatch(
                f"{self.family.n_blocks} blocks for {self.outcomes.n} outcomes"
            )
        self._check_unit_norm(FamilyMismatch)

    def probabilities(self) -> tuple[float, ...]:
        return tuple(born_probability(self, k) for k in range(self.outcomes.n))

    def to_json_dict(self) -> dict:
        return {
            "context": self.context.as_dict(),
            "m": self.family.m,
            "blocks": [list(b) for b in self.family.blocks],
            "amplitudes": self.amplitude_entries(),
            "probabilities": list(self.probabilities()),
        }


def build_complex_context(
    p: ProbabilityVector,
    ctx: ContextId,
    *,
    family: BlockSpectralFamily | None = None,
    phases: PhaseAssignment | None = None,
) -> ComplexContextVector:
    """Construct the amplitude vector realizing the given outcome probabilities.

    Defaults: rank-1 blocks (m = n) and all-zero phases.
    """
    if family is None:
        family = BlockSpectralFamily.rank_one(p.outcomes.n)
    if family.n_blocks != p.outcomes.n:
        raise FamilyMismatch(
            f"family has {family.n_blocks} blocks, distribution has {p.outcomes.n} outcomes"
        )
    if phases is None:
        phases = PhaseAssignment.zeros(family.m)
    if len(phases) != family.m:
        raise FamilyMismatch(
            f"phase assignment covers {len(phases)} indices, ambient dimension is {family.m}"
        )
    amplitudes = [0j] * family.m
    for k, block in enumerate(family.blocks):
        modulus = math.sqrt(p.probs[k] / len(block))
        for j in block:
            amplitudes[j] = modulus * cmath.exp(1j * phases.angles[j])
    w = ComplexContextVector(p.outcomes, tuple(amplitudes), family, ctx)
    for k in range(p.outcomes.n):
        if abs(born_probability(w, k) - float(p.probs[k])) > NORM_TOLERANCE:
            raise FamilyMismatch(f"block {k} weight deviates from its probability")
    return w


def born_probability(w: ComplexContextVector, k: int) -> float:
    """Squared amplitude weight of outcome k's block."""
    if not 0 <= k < w.family.n_blocks:
        raise IndexError(f"outcome index {shown(k)} out of range for {w.family.n_blocks} outcomes")
    return sum(abs(w.amplitudes[j]) ** 2 for j in w.family.blocks[k])


def apply_projector(w: ComplexContextVector, k: int) -> tuple[complex, ...]:
    """Project onto outcome k's block: amplitudes outside the block become 0."""
    if not 0 <= k < w.family.n_blocks:
        raise IndexError(f"outcome index {shown(k)} out of range for {w.family.n_blocks} outcomes")
    keep = set(w.family.blocks[k])
    return tuple(a if j in keep else 0j for j, a in enumerate(w.amplitudes))
