"""carlevel: exact level-set bounds for dyadic Carleson selections.

Builds and validates binary Carleson sequences over the dyadic grid,
evaluates the closed-form optimal bound for the size of height-function
level sets, certifies its structural inequalities on exhaustive exact
grids, and probes sharpness with an exact dynamic program over truncated
trees.  Everything is integer or rational arithmetic; nothing is floating
point.
"""

from .candidate import (
    CandidateParams,
    CheckGrid,
    candidate_c1,
    candidate_c2,
    candidate_c32,
    candidate_eval,
    candidate_fn,
    candidate_row,
    candidate_surface,
)
from .construct import binary_expansion, construct_admissible, construct_fractional
from .dyadic import (
    ROOT,
    DyadicRational,
    NodeAddress,
    parse_rational,
    to_fraction,
)
from .errors import AdmissibilityError, PrecisionError, ResourceLimitError
from .extremal import ConvergenceRow, LevelSetDP
from .sequences import (
    CarlesonSeq,
    ValidationReport,
    carleson_constant,
    random_carleson,
)
from .supersolution import (
    CheckSummary,
    InductionTrace,
    Violation,
    check_jump,
    check_main_inequality,
    check_midpoint_concavity,
    check_obstacle,
    induction_trace,
    obstacle_indicator,
    run_all_checks,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityError",
    "CandidateParams",
    "CarlesonSeq",
    "CheckGrid",
    "CheckSummary",
    "ConvergenceRow",
    "DyadicRational",
    "InductionTrace",
    "LevelSetDP",
    "NodeAddress",
    "PrecisionError",
    "ROOT",
    "ResourceLimitError",
    "ValidationReport",
    "Violation",
    "binary_expansion",
    "candidate_c1",
    "candidate_c2",
    "candidate_c32",
    "candidate_eval",
    "candidate_fn",
    "candidate_row",
    "candidate_surface",
    "carleson_constant",
    "check_jump",
    "check_main_inequality",
    "check_midpoint_concavity",
    "check_obstacle",
    "construct_admissible",
    "construct_fractional",
    "induction_trace",
    "obstacle_indicator",
    "parse_rational",
    "random_carleson",
    "run_all_checks",
    "to_fraction",
]
