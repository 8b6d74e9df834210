"""The package's public names: the import block of `contextrep/__init__.py` is their one list."""

import types

import contextrep

PUBLIC_NAMES = {
    "BOUNDARY_TOLERANCE", "FLOAT_TOLERANCE", "NORM_TOLERANCE", "SUM_TOLERANCE",
    "AnimalActsDataset", "AnimalActsTables", "BlockSpectralFamily", "Boundary",
    "ComplexContextVector", "ContextId", "ContextRepError", "CountTable", "Deterministic",
    "EntanglementReport", "FamilyMismatch", "HiddenVariable", "InvalidCounts",
    "InvalidDistribution", "InvalidFamily", "InvalidHiddenVariable", "InvalidJointTable",
    "InvalidPhases", "JointComplexVector", "JointTable", "Marginals", "MinorWitness",
    "MonteCarloMeasurement", "OutcomeResolution", "OutcomeSet", "ParseError",
    "PhaseAssignment", "ProbabilityVector", "RealContextVector", "UnsupportedFamily",
    "VesselsConfig", "VesselsOutcomeCounts",
    "animal_acts_dataset", "animal_acts_tables", "apply_projector", "born_probability",
    "build_complex_context", "build_joint_vectors", "build_real_context",
    "classify_hidden_variable", "display_rounded", "factorization_certificate", "is_product",
    "marginals", "monte_carlo_measurement", "parse_counts_csv", "parse_counts_json",
    "parse_joint_csv", "parse_joint_json", "probabilities_from_counts",
    "region_measure_ratio", "sample_hidden_variables", "simulate_vessels",
    "tensor_product_complex", "tensor_product_real", "vessels_joint_table",
}


def test_all_lists_the_public_names():
    assert len(PUBLIC_NAMES) == 60
    assert len(contextrep.__all__) == len(set(contextrep.__all__))
    assert set(contextrep.__all__) == PUBLIC_NAMES


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from contextrep import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == PUBLIC_NAMES
    assert not any(isinstance(value, types.ModuleType) for value in namespace.values())
    assert all(namespace[name] is getattr(contextrep, name) for name in PUBLIC_NAMES)
