"""Exact Poisson cohomology of linear Poisson structures on R^3.

Multivector fields with rational polynomial coefficients, the graded
Schouten bracket, the Poisson differential of any 3-dimensional Lie
algebra from the classification registry, degree-by-degree cohomology
with canonical representatives, and frozen closed-form expectations to
verify the engine against.
"""

from .multivector import (
    MultiVector,
    Polynomial,
    VAR_NAMES,
    divergence,
    modular_vector_field,
    schouten_bracket,
    wedge,
)
from .registry import (
    KINDS,
    Algebra,
    StructureConstants,
    jacobi_defect,
    linear_poisson,
    structure_constants,
)
from .complexes import (
    DegreeError,
    GradedBasis,
    OperatorCell,
    differential_matrix,
    monomials,
    poisson_differential,
    rotation_field,
)
from .cohomology import (
    CohomologyCell,
    CohomologyTable,
    cell_multivectors,
    coboundary_witness,
    cohomology_cell,
    cohomology_table,
    invariant_cohomology,
    resonances,
)
from .expressions import (
    ExpressionError,
    format_coordinates,
    format_multivector,
    parse_multivector,
)
from .verification import (
    DeformationCheck,
    Expectation,
    FIXTURE_IDS,
    ModularCheck,
    Report,
    deformation_identity_check,
    expected_modular_field,
    expected_table,
    load_fixture,
    modular_class_check,
    oracle_dimension_grid,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "MultiVector",
    "Polynomial",
    "VAR_NAMES",
    "divergence",
    "modular_vector_field",
    "schouten_bracket",
    "wedge",
    "KINDS",
    "Algebra",
    "StructureConstants",
    "jacobi_defect",
    "linear_poisson",
    "structure_constants",
    "DegreeError",
    "GradedBasis",
    "OperatorCell",
    "differential_matrix",
    "monomials",
    "poisson_differential",
    "rotation_field",
    "CohomologyCell",
    "CohomologyTable",
    "cell_multivectors",
    "coboundary_witness",
    "cohomology_cell",
    "cohomology_table",
    "invariant_cohomology",
    "resonances",
    "ExpressionError",
    "format_coordinates",
    "format_multivector",
    "parse_multivector",
    "DeformationCheck",
    "Expectation",
    "FIXTURE_IDS",
    "ModularCheck",
    "Report",
    "deformation_identity_check",
    "expected_modular_field",
    "expected_table",
    "load_fixture",
    "modular_class_check",
    "oracle_dimension_grid",
    "verify",
]
