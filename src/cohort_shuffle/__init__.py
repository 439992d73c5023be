"""Reassign students from old companies to new ones under balance rules.

The package models the annual "shuffle" of a student body into companies
as three integer programs over a shared constraint set (keep company
compositions balanced on merit, demographics, athletics, and special
roles) and solves them exactly with a built-in branch-and-bound over a
bounded-variable simplex:

* ``min``   - fewest students left in their previous company,
* ``dev``   - most even spread of merit-score sums across companies,
* ``pairs`` - fewest previously-acquainted pairs kept together, with an
  a-priori pigeonhole bound that often certifies optimality outright.

`generate` builds realistic synthetic rosters, `solve_roster` runs the
whole validate/compile/solve/certify pipeline, and `certify` re-audits
any result from the raw assignment alone.
"""

__version__ = "0.1.0"

from cohort_shuffle.bounds import (
    Certificate,
    PairsBoundReport,
    certify,
    optimality_gap,
    pairs_lower_bound,
)
from cohort_shuffle.branch_bound import (
    DecodeError,
    SolveOptions,
    SolveResult,
    SolveStats,
    SolveStatus,
    decode_assignment,
    solve_ip,
)
from cohort_shuffle.compiler import acquainted_pairs, compile_model, count_variables
from cohort_shuffle.generator import (
    GenerationError,
    GenSpec,
    MetricSpec,
    balanced_spec,
    desk_spec,
    generate,
    reference_spec,
    reference_company_sizes,
)
from cohort_shuffle.heuristics import cyclic_deal, local_search, rotate_within_battalions
from cohort_shuffle.ipmodel import (
    IpModel,
    LinearRow,
    ModelVariant,
    Sense,
    VarKind,
    export_lp,
)
from cohort_shuffle.pipeline import (
    PipelineResult,
    assignment_objective,
    build_warm_start,
    solve_roster,
)
from cohort_shuffle.reporting import ReportTable, company_stats, render
from cohort_shuffle.roster import (
    Assignment,
    ConstraintViolation,
    FeasibilityReport,
    Roster,
    Student,
    Tolerances,
    Violation,
    check_feasible,
    company_members,
    count_pairs,
    count_same_company,
    deviation_from_sums,
    score_sums,
    validate_roster,
    weighted_deviation,
)
from cohort_shuffle.simplex import LpSolution, LpStatus, solve_lp, standard_form

__all__ = [
    "__version__",
    "Assignment",
    "Certificate",
    "ConstraintViolation",
    "DecodeError",
    "FeasibilityReport",
    "GenerationError",
    "GenSpec",
    "IpModel",
    "LinearRow",
    "LpSolution",
    "LpStatus",
    "MetricSpec",
    "ModelVariant",
    "PairsBoundReport",
    "PipelineResult",
    "ReportTable",
    "Roster",
    "Sense",
    "SolveOptions",
    "SolveResult",
    "SolveStats",
    "SolveStatus",
    "Student",
    "Tolerances",
    "VarKind",
    "Violation",
    "acquainted_pairs",
    "assignment_objective",
    "balanced_spec",
    "build_warm_start",
    "certify",
    "check_feasible",
    "company_members",
    "company_stats",
    "compile_model",
    "count_pairs",
    "count_same_company",
    "count_variables",
    "cyclic_deal",
    "decode_assignment",
    "desk_spec",
    "deviation_from_sums",
    "export_lp",
    "generate",
    "local_search",
    "optimality_gap",
    "pairs_lower_bound",
    "reference_company_sizes",
    "reference_spec",
    "render",
    "rotate_within_battalions",
    "score_sums",
    "solve_ip",
    "solve_lp",
    "solve_roster",
    "standard_form",
    "validate_roster",
    "weighted_deviation",
]
