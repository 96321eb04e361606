"""griddom: optimal dominating sets on grid graphs.

Construction of minimum dominating sets (which are also [1,2]-sets) for
m x n grids with m, n >= 16 in time proportional to the answer, a full
coverage verifier, and independent exact solvers for small grids.
"""

from .construction import (
    MIN_SIDE,
    PatternSet,
    construct,
    gamma_formula,
    pattern_class,
)
from .deviations import DEVIATIONS, load_ledger
from .grid import GridDims, Vertex
from .oracle import (
    CapacityError,
    OracleResult,
    exact_gamma_bruteforce,
    exact_gamma_dp,
)
from .render import (
    RenderedGrid,
    document_to_pattern,
    dumps_document,
    pattern_to_document,
    render_ascii,
    render_svg,
)
from .verify import (
    CoverageReport,
    PatternVerdict,
    corner_multiplicity_check,
    count_cross_check,
    coverage_map,
    verify_pattern,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "CoverageReport",
    "DEVIATIONS",
    "GridDims",
    "MIN_SIDE",
    "OracleResult",
    "PatternSet",
    "PatternVerdict",
    "RenderedGrid",
    "Vertex",
    "construct",
    "corner_multiplicity_check",
    "count_cross_check",
    "coverage_map",
    "document_to_pattern",
    "dumps_document",
    "exact_gamma_bruteforce",
    "exact_gamma_dp",
    "gamma_formula",
    "load_ledger",
    "pattern_class",
    "pattern_to_document",
    "render_ascii",
    "render_svg",
    "verify_pattern",
]
