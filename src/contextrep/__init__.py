"""Representations of measurement contexts and entanglement detection.

Given outcome probabilities for a measurement, this package builds the two
standard pictures side by side: a point of the probability simplex carved
into outcome regions for a hidden-variable account, and a unit vector in a
complex Hilbert space whose block weights reproduce the probabilities by the
Born rule.  Joint measurements get tensor-product versions of both, plus a
decision procedure that labels a joint table product or entangled, with a
2x2 minor witness in the entangled case.
"""

from types import ModuleType as _ModuleType

from .errors import (
    ContextRepError,
    FamilyMismatch,
    InvalidCounts,
    InvalidDistribution,
    InvalidFamily,
    InvalidHiddenVariable,
    InvalidJointTable,
    InvalidPhases,
    ParseError,
    UnsupportedFamily,
)
from .hilbert import (
    NORM_TOLERANCE,
    BlockSpectralFamily,
    ComplexContextVector,
    PhaseAssignment,
    apply_projector,
    born_probability,
    build_complex_context,
)
from .joint import (
    FLOAT_TOLERANCE,
    EntanglementReport,
    JointComplexVector,
    JointTable,
    Marginals,
    MinorWitness,
    build_joint_vectors,
    factorization_certificate,
    is_product,
    marginals,
    parse_joint_csv,
    parse_joint_json,
    tensor_product_complex,
    tensor_product_real,
)
from .probability import (
    SUM_TOLERANCE,
    ContextId,
    CountTable,
    OutcomeSet,
    ProbabilityVector,
    display_rounded,
    parse_counts_csv,
    parse_counts_json,
    probabilities_from_counts,
)
from .scenarios import (
    AnimalActsDataset,
    AnimalActsTables,
    VesselsConfig,
    VesselsOutcomeCounts,
    animal_acts_dataset,
    animal_acts_tables,
    simulate_vessels,
    vessels_joint_table,
)
from .simplex import (
    BOUNDARY_TOLERANCE,
    Boundary,
    Deterministic,
    HiddenVariable,
    MonteCarloMeasurement,
    OutcomeResolution,
    RealContextVector,
    build_real_context,
    classify_hidden_variable,
    monte_carlo_measurement,
    region_measure_ratio,
    sample_hidden_variables,
)

__version__ = "0.1.0"

# The import block above is the one list of public names.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
