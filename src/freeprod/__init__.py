"""freeprod: structure calculator and verifier for reduced free products
of abelian C*-algebras with atomic-plus-diffuse states."""

__version__ = "0.1.0"

from .engine import (
    AtomTuple,
    IdealDescriptor,
    StructureReport,
    VerdictSet,
    classify_atom_tuples,
    decompose,
    ideal_lattice,
)
from .model import (
    AtomSpec,
    FactorSpec,
    NormalizedProblem,
    ProblemSpec,
    TailSpec,
    normalize_problem,
    validate_factor,
)
from .nc import alternating_moment, alternating_moments, wedge_trace
from .twoproj import (
    TwoProjectionLaw,
    TwoProjStructure,
    certify_law,
    law_density,
    law_moment,
    law_moments,
    two_projection_law,
    two_projection_structure,
)

__all__ = [
    "AtomSpec",
    "AtomTuple",
    "FactorSpec",
    "IdealDescriptor",
    "NormalizedProblem",
    "ProblemSpec",
    "StructureReport",
    "TailSpec",
    "TwoProjStructure",
    "TwoProjectionLaw",
    "VerdictSet",
    "alternating_moment",
    "alternating_moments",
    "certify_law",
    "classify_atom_tuples",
    "decompose",
    "ideal_lattice",
    "law_density",
    "law_moment",
    "law_moments",
    "normalize_problem",
    "two_projection_law",
    "two_projection_structure",
    "validate_factor",
    "wedge_trace",
    "__version__",
]
