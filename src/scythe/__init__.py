"""Sheaf cohomology on cell complexes through discrete Morse reduction.

The central operation pairs off cells of a parametrized cochain complex
and cancels each pair, correcting the surviving maps, until no legal pair
remains.  What survives is a much smaller complex with the same cohomology,
together with explicit chain maps in both directions.  On top of that sit
the two decomposition pipelines: covers with their nerves, and maps to
graphs with their fibers.
"""

from .errors import (
    DanglingId,
    FiberInclusionViolated,
    FibersDoNotPresent,
    IncidenceIdentityViolation,
    InvalidSheafData,
    NerveTooBig,
    NonGradedCover,
    NotACocycle,
    NotACover,
    NotASubcomplex,
    NotInvertible,
    ParseError,
    ScytheError,
    SolveFailed,
    TheoremPrecondition,
    UnknownCell,
    ValidationError,
)
from .field import RATIONAL, FieldSpec, fp
from .matrix import EchelonSolver, Matrix, mat_mul, matvec, try_invert
from .poset import GradedPoset, build_poset
from .cw import CWComplex, build_cw, subcomplex
from .parametrization import Parametrization, verify_d_squared
from .sheaf import (
    CellularSheaf,
    compile_sheaf,
    constant_sheaf,
    pushforward_constant,
    skyscraper_sheaf,
)
from .cohomology import (
    CohomologyProfile,
    betti,
    class_coordinates,
    cocycle_basis,
    induced_map,
    sheaf_cohomology,
)
from .morse import (
    coscythe,
    iterate_scythe,
    reduce_pair,
    scythe,
)
from .equivalence import (
    Equivalence,
    lift_cocycle,
    project_cocycle,
)
from .nerve import (
    ComplexityEstimate,
    Cover,
    cech_sheaf,
    cohomology_via_cech,
    cohomology_via_leray,
    complexity_estimate,
    leray_sheaf,
    nerve,
    nerve_theorem_check,
    parallel_stalks,
    validate_fibers,
)
from .report import build_report, input_parameters
from .serialize import (
    complex_to_json,
    cover_to_json,
    dumps,
    equivalence_to_json,
    fibers_to_json,
    loads,
    parse,
    parse_cover,
    parse_fibers,
    reduced_to_json,
    sheaf_to_json,
)
from . import complexes

__all__ = [
    "CWComplex",
    "CellularSheaf",
    "CohomologyProfile",
    "ComplexityEstimate",
    "Cover",
    "DanglingId",
    "EchelonSolver",
    "Equivalence",
    "FiberInclusionViolated",
    "FibersDoNotPresent",
    "FieldSpec",
    "GradedPoset",
    "IncidenceIdentityViolation",
    "InvalidSheafData",
    "Matrix",
    "NerveTooBig",
    "NonGradedCover",
    "NotACocycle",
    "NotACover",
    "NotASubcomplex",
    "NotInvertible",
    "Parametrization",
    "ParseError",
    "RATIONAL",
    "ScytheError",
    "SolveFailed",
    "TheoremPrecondition",
    "UnknownCell",
    "ValidationError",
    "betti",
    "build_cw",
    "build_poset",
    "build_report",
    "cech_sheaf",
    "class_coordinates",
    "cocycle_basis",
    "cohomology_via_cech",
    "cohomology_via_leray",
    "compile_sheaf",
    "complex_to_json",
    "complexes",
    "complexity_estimate",
    "constant_sheaf",
    "coscythe",
    "cover_to_json",
    "dumps",
    "equivalence_to_json",
    "fibers_to_json",
    "fp",
    "induced_map",
    "input_parameters",
    "iterate_scythe",
    "leray_sheaf",
    "lift_cocycle",
    "loads",
    "mat_mul",
    "matvec",
    "nerve",
    "nerve_theorem_check",
    "parallel_stalks",
    "parse",
    "parse_cover",
    "parse_fibers",
    "project_cocycle",
    "pushforward_constant",
    "reduce_pair",
    "reduced_to_json",
    "scythe",
    "sheaf_cohomology",
    "sheaf_to_json",
    "skyscraper_sheaf",
    "subcomplex",
    "try_invert",
    "validate_fibers",
    "verify_d_squared",
]
