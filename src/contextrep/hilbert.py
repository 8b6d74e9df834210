"""Complex Hilbert-space representation with diagonal spectral families.

A context with n outcomes is modeled in an ambient space of dimension m,
n <= m <= n^2.  Each outcome k owns a block of ambient indices; the projector
for outcome k is diagonal with ones exactly on that block, so projectors are
represented by index blocks and never materialized as matrices.  Outcome
probability is recovered by the Born rule: the squared amplitude weight of
the block.

Amplitudes are chosen as sqrt(p_k / b_k) * exp(i * alpha_j) for every ambient
index j of block k, where b_k is the block size; this is the normalization
forced by the Born rule (each block then carries weight p_k).  Every vector
holds its amplitudes in polar form, one modulus and one phase per index, and
the Born rule reads the moduli alone, so a phase, a free input, never moves a
probability by one bit.  The complex values are formed only for reports and
projections.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import FamilyMismatch, InvalidFamily, InvalidPhases
from .probability import (ContextId, OutcomeSet, ProbabilityVector, as_float, check_index,
                          is_exact_value, is_integer, shown)

#: Allowed deviation from exact unit norm.
NORM_TOLERANCE = 1e-12

TWO_PI = 2.0 * math.pi


def round_sig(x: float) -> float:
    """Round to 12 significant digits, the precision amplitudes are reported at."""
    return float(f"{x:.12g}")


class AmplitudeVector:
    """The one owner of an amplitude vector's polar form, unit-norm rule and report form."""

    magnitudes: tuple[float, ...]
    phases: tuple[float, ...]

    def _hold_polar(self, size: int, error: type[Exception]) -> None:
        """Hold the phases normalized; refuse all but `size` finite moduli of unit norm."""
        phases = self.phases  # normalized once: here, or by a PhaseAssignment given
        phases = phases if isinstance(phases, PhaseAssignment) else PhaseAssignment(phases)
        object.__setattr__(self, "phases", phases.angles)
        object.__setattr__(self, "magnitudes", tuple(self.magnitudes))
        if len(self.magnitudes) != size or len(self.phases) != size:
            raise error(f"expected {size} moduli and phases")
        if not all(0 <= m < math.inf for m in self.magnitudes):  # a NaN modulus fails too
            raise error("every modulus must be finite and nonnegative")
        norm = sum(m * m for m in self.magnitudes)
        if not abs(norm - 1.0) <= NORM_TOLERANCE:  # a NaN norm fails too
            raise error(f"amplitudes have squared norm {norm!r}, not 1")

    @property
    def amplitudes(self) -> tuple[complex, ...]:
        """m * e^(i theta) per index, formed for reports and projections only."""
        return tuple(m * cmath.exp(1j * a) for m, a in zip(self.magnitudes, self.phases))

    def moduli(self) -> tuple[float, ...]:
        return self.magnitudes

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
            if type(a) is not float:  # a float is its own float: build no message for it
                if not (isinstance(a, float) or is_exact_value(a)):
                    raise InvalidPhases(f"phase at index {j} must be a number, got {a!r}")
                a = as_float(a, InvalidPhases, f"phase at index {j}")
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
        return cls(tuple(angles.get(l, 0.0) for l in labels))


@dataclass(frozen=True)
class ComplexContextVector(AmplitudeVector):
    """Unit vector whose block weights are the outcome probabilities."""

    outcomes: OutcomeSet
    magnitudes: tuple[float, ...]
    phases: tuple[float, ...]
    family: BlockSpectralFamily
    context: ContextId

    def __post_init__(self) -> None:
        if self.family.n_blocks != self.outcomes.n:
            raise FamilyMismatch(f"{self.family.n_blocks} blocks for {self.outcomes.n} outcomes")
        self._hold_polar(self.family.m, FamilyMismatch)

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
    moduli = [0.0] * family.m
    for block, prob in zip(family.blocks, p.probs):
        for j in block:
            moduli[j] = math.sqrt(prob / len(block))
    # Each block weighs p_k to a few ulp; the vector refuses a block or phase count that is off.
    return ComplexContextVector(p.outcomes, tuple(moduli),
                                PhaseAssignment.zeros(family.m) if phases is None else phases,
                                family, ctx)


def born_probability(w: ComplexContextVector, k: int) -> float:
    """Squared amplitude weight of outcome k's block."""
    check_index(k, w.family.n_blocks)
    moduli = w.magnitudes  # squared as m * m, correctly rounded; libm's m ** 2 is not always
    return sum(moduli[j] * moduli[j] for j in w.family.blocks[k])


def apply_projector(w: ComplexContextVector, k: int) -> tuple[complex, ...]:
    """Project onto outcome k's block: amplitudes outside the block become 0."""
    check_index(k, w.family.n_blocks)
    keep = set(w.family.blocks[k])
    return tuple(a if j in keep else 0j for j, a in enumerate(w.amplitudes))
